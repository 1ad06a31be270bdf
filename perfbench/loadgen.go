package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// clients is the closed loop's population: each client sends its next
// campaign only after the previous body has arrived, as a researcher's
// script does.
const clients = 2

// maxTimed caps a timed phase that has not yet reached the sample count
// its tail percentile needs.
const maxTimed = 120 * time.Second

// outcome is one timed request.
type outcome struct {
	seq     int // position in the workload's request sequence
	req     request
	latency time.Duration
	status  int
	err     error
	sum     [32]byte
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// httpClient is shared by the clients; the transport keeps one idle
// connection per client so no request pays a TCP handshake.
var httpClient = &http.Client{
	Timeout:   60 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: clients},
}

// post submits one synchronous campaign and reads the whole body.
func post(url string, body []byte) (status int, resp []byte, err error) {
	r, err := httpClient.Post(url+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, resp, err
}

// warmUp sends the working set sequentially and fails on any non-200.
func warmUp(url string, ws []request) error {
	for _, r := range ws {
		status, body, err := post(url, r.body())
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.body(), err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s: HTTP %d: %s", r.body(), status, body)
		}
	}
	return nil
}

// closedLoop drives the generator's sequence at url with `clients`
// concurrent clients for d, extended until at least minDone requests
// have completed (capped at maxTimed). Requests are handed out in
// sequence order, so every run of a seed sends the same prefix of the
// same sequence.
func closedLoop(url string, g *generator, d time.Duration, minDone int) ([]outcome, time.Duration) {
	var (
		mu   sync.Mutex
		outs []outcome
		seq  int
	)
	start := time.Now()
	take := func() (int, request, bool) {
		mu.Lock()
		defer mu.Unlock()
		el := time.Since(start)
		if (el >= d && len(outs) >= minDone) || el >= maxTimed {
			return 0, request{}, false
		}
		seq++
		return seq - 1, g.next(), true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, r, ok := take()
				if !ok {
					return
				}
				body := r.body()
				t0 := time.Now()
				status, resp, err := post(url, body)
				o := outcome{seq: i, req: r, latency: time.Since(t0), status: status, err: err, sum: sha256.Sum256(resp)}
				if err == nil && status != http.StatusOK {
					o.err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(resp))
				}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}
