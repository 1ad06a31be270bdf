package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/diskstore"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:port").
	Coordinator string
	// Token is the fleet's shared secret; must match the coordinator's
	// -fleet-token or every registration is refused with 401. Empty
	// disables signing.
	Token string
	// Capacity is advertised to the coordinator as the max concurrent
	// cells this worker wants (<=0 lets the coordinator default it). The
	// worker also enforces it locally: execute requests beyond capacity
	// are refused with 429 so an overeager or skewed coordinator cannot
	// pile work past what was advertised.
	Capacity int
	// Cache and Store are the worker's local tiers, consulted before
	// peer fill and execution, and served back to the fleet via the
	// cell-read endpoint; either may be nil.
	Cache *resultcache.Cache
	Store *diskstore.Store
	// Heartbeat is the registration re-POST interval (default 2s).
	Heartbeat time.Duration
	// Client overrides the HTTP client used for heartbeats and peer
	// fill.
	Client *http.Client
	// Logf, when non-nil, receives registration failures (a worker keeps
	// retrying — the coordinator may simply not be up yet).
	Logf func(format string, args ...any)
}

// WorkerMetrics are the worker-side counters rendered as
// affinityd_fleet_worker_* at /metrics.
type WorkerMetrics struct {
	// Requests counts execute requests received.
	Requests obs.Counter
	// Executions counts cells this worker simulated to completion.
	Executions obs.Counter
	// CacheHits/DiskHits count execute requests served from the
	// worker's local memory cache / disk store.
	CacheHits obs.Counter
	DiskHits  obs.Counter
	// PeerFills counts cells served by asking the coordinator's store
	// instead of executing.
	PeerFills obs.Counter
	// CellServes counts cell-read requests this worker answered from its
	// own tiers — the worker's half of bidirectional peer fill.
	CellServes obs.Counter
	// AuthRejections counts fleet requests this worker refused with 401.
	AuthRejections obs.Counter
	// Rejections counts execute requests refused with 429 because the
	// worker was already at its advertised capacity.
	Rejections obs.Counter
	// Errors counts execute requests that failed (bad plan coordinate,
	// identity mismatch, or execution error).
	Errors obs.Counter
	// ExecNs is the local execution wall time per executed cell.
	ExecNs obs.Histogram
}

// Worker executes dispatched cells and keeps itself registered with the
// coordinator.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	auth   *authenticator
	tiers  resultcache.Tiers

	// Stats holds the worker counters; read directly by /metrics.
	Stats WorkerMetrics

	mu        sync.Mutex
	advertise string

	inflight atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewWorker builds a Worker; Start begins the heartbeat loop once the
// advertised URL is known (after the listener binds).
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = defaultClient()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{
		cfg:    cfg,
		client: client,
		auth:   newAuthenticator(cfg.Token),
		tiers:  resultcache.Tiers{Mem: cfg.Cache, Disk: cfg.Store},
		ctx:    ctx,
		cancel: cancel,
	}
}

// RegisterHandlers mounts the worker's fleet endpoints: cell execution,
// and the cell-read endpoint that exposes the worker's own memory+disk
// tiers to the rest of the fleet (the coordinator relays misses here).
func (w *Worker) RegisterHandlers(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathExecute, w.handleExecute)
	mux.HandleFunc("GET "+PathCells+"{key}", w.handleCell)
}

// capacity is the worker's locally-enforced concurrent execute bound.
func (w *Worker) capacity() int64 {
	if w.cfg.Capacity > 0 {
		return int64(w.cfg.Capacity)
	}
	return 4 // mirrors the coordinator's DefaultCapacity
}

// Start begins registering (and re-registering every heartbeat) with
// the coordinator, advertising the given base URL. The first
// registration is attempted synchronously so a worker that prints
// "joined" is already dispatchable; failures are retried in the
// background.
func (w *Worker) Start(advertise string) {
	w.mu.Lock()
	w.advertise = advertise
	w.mu.Unlock()
	w.register()
	w.wg.Add(1)
	go w.heartbeatLoop()
}

// Stop ends the heartbeat loop.
func (w *Worker) Stop() {
	w.cancel()
	w.wg.Wait()
}

func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	tick := time.NewTicker(w.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-tick.C:
			w.register()
		}
	}
}

// register POSTs one signed registration/heartbeat, bounded by the
// heartbeat interval so a hung coordinator cannot back the loop up.
func (w *Worker) register() {
	w.mu.Lock()
	advertise := w.advertise
	w.mu.Unlock()
	body, err := json.Marshal(RegisterRequest{
		URL:           advertise,
		Capacity:      w.cfg.Capacity,
		EngineVersion: version.Engine,
	})
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(w.ctx, w.cfg.Heartbeat)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+PathRegister, bytes.NewReader(body))
	if err != nil {
		w.logf("fleet: register: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	w.auth.sign(req, body)
	resp, err := w.client.Do(req)
	if err != nil {
		w.logf("fleet: register with %s: %v", w.cfg.Coordinator, err)
		return
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		// 409 is engine-version skew: permanent until redeploy, but a
		// redeploy is exactly what fixes it, so keep heartbeating. 401 is
		// a token mismatch — same deal: fixing the flag and restarting is
		// the remedy, and the log line says which daemon to fix.
		w.logf("fleet: register with %s: status %d: %.200s", w.cfg.Coordinator, resp.StatusCode, msg)
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// handleExecute runs one dispatched cell. Lookup order mirrors the
// coordinator's own tiers, extended by peer cache fill: local memory →
// local disk → coordinator store → execute. Whatever the source, the
// response carries the cell's canonical bytes and their provenance.
func (w *Worker) handleExecute(rw http.ResponseWriter, r *http.Request) {
	w.Stats.Requests.Inc()
	api.EchoRequestID(rw, r)
	raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		w.Stats.Errors.Inc()
		writeFleetError(rw, http.StatusBadRequest, "invalid_request", "", fmt.Sprintf("read body: %v", err))
		return
	}
	if err := w.auth.verify(r, raw); err != nil {
		w.Stats.AuthRejections.Inc()
		writeAuthError(rw, err)
		return
	}
	var req ExecuteRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		w.Stats.Errors.Inc()
		writeFleetError(rw, http.StatusBadRequest, "invalid_request", "", fmt.Sprintf("bad execute body: %v", err))
		return
	}
	// Enforce the advertised capacity locally: a worker is the authority
	// on its own concurrency, whatever the coordinator believes. The
	// Retry-After matches the coordinator's backoff scale — the refused
	// attempt retries elsewhere, and capacity frees within a cell's
	// execution time.
	if n := w.inflight.Add(1); n > w.capacity() {
		w.inflight.Add(-1)
		w.Stats.Rejections.Inc()
		rw.Header().Set("Retry-After", "1")
		writeFleetError(rw, http.StatusTooManyRequests, "over_capacity", "",
			fmt.Sprintf("worker at capacity (%d cells in flight)", w.capacity()))
		return
	}
	defer w.inflight.Add(-1)
	plan, err := experiments.Cells(req.Kind, req.Params)
	if err != nil {
		w.Stats.Errors.Inc()
		writeFleetError(rw, http.StatusBadRequest, "invalid_param", "params", fmt.Sprintf("cell plan: %v", err))
		return
	}
	if req.Index < 0 || req.Index >= len(plan.Cells) {
		w.Stats.Errors.Inc()
		writeFleetError(rw, http.StatusBadRequest, "invalid_param", "index",
			fmt.Sprintf("cell index %d outside plan (%d cells)", req.Index, len(plan.Cells)))
		return
	}
	cell := &plan.Cells[req.Index]
	key := resultcache.Key(cell.KeyKind, cell.KeyParams, version.Engine)
	if cell.ID != req.CellID || key != req.Key {
		// The two sides derived different plans from the same params —
		// engine-version skew or a protocol bug. Refusing is the only
		// safe answer: these bytes would be filed under the wrong key.
		w.Stats.Errors.Inc()
		writeFleetError(rw, http.StatusConflict, "plan_mismatch", "", fmt.Sprintf(
			"plan mismatch: computed cell %q key %.16s, dispatched %q %.16s", cell.ID, key, req.CellID, req.Key))
		return
	}
	w.mu.Lock()
	advertise := w.advertise
	w.mu.Unlock()
	resp := ExecuteResponse{APIVersion: api.Version, CellID: cell.ID, Key: key, Worker: advertise, Engine: cell.Engine}

	switch body, costNs, tier := w.tiers.Get(key); tier {
	case resultcache.TierMem:
		w.Stats.CacheHits.Inc()
		resp.Source, resp.Body, resp.ExecNs = "cache", body, costNs
		writeFleetJSON(rw, http.StatusOK, resp)
		return
	case resultcache.TierDisk:
		w.Stats.DiskHits.Inc()
		resp.Source, resp.Body, resp.ExecNs = "disk", body, costNs
		writeFleetJSON(rw, http.StatusOK, resp)
		return
	}
	// Peer fill: ask the coordinator's tiers (which relay to the other
	// workers'). The X-Fleet-Peer header names this worker so the relay
	// skips it, and the request id rides along so the whole fan-out
	// correlates.
	if w.cfg.Coordinator != "" {
		hdr := http.Header{}
		hdr.Set(peerHeader, advertise)
		if rid := r.Header.Get(api.RequestIDHeader); rid != "" {
			hdr.Set(api.RequestIDHeader, rid)
		}
		if body, costNs, ok := fetchCell(r.Context(), w.client, w.auth, w.cfg.Coordinator, key, hdr); ok {
			w.Stats.PeerFills.Inc()
			w.tiers.Put(key, body, costNs)
			resp.Source, resp.Body, resp.ExecNs = "peer", body, costNs
			writeFleetJSON(rw, http.StatusOK, resp)
			return
		}
	}

	start := time.Now()
	var res any
	var runErr error
	pprof.Do(r.Context(), pprof.Labels("campaign", plan.Kind, "cell", cell.ID), func(ctx context.Context) {
		res, runErr = cell.Run(ctx)
	})
	if runErr != nil {
		w.Stats.Errors.Inc()
		writeFleetError(rw, http.StatusInternalServerError, "internal", "", fmt.Sprintf("cell %s: %v", cell.ID, runErr))
		return
	}
	body, err := report.CanonicalJSON(res)
	if err != nil {
		w.Stats.Errors.Inc()
		writeFleetError(rw, http.StatusInternalServerError, "internal", "", fmt.Sprintf("encode cell %s: %v", cell.ID, err))
		return
	}
	elapsed := uint64(time.Since(start))
	w.Stats.Executions.Inc()
	w.Stats.ExecNs.Observe(elapsed)
	// Cache locally in both tiers: the worker's future dispatches (and
	// the rest of the fleet, via the cell-read endpoint) reuse the work
	// even if the coordinator's copy is evicted.
	w.tiers.Put(key, body, elapsed)
	resp.Source, resp.Body, resp.ExecNs = "executed", body, elapsed
	writeFleetJSON(rw, http.StatusOK, resp)
}

// handleCell serves the worker's own tiers to the fleet: the read half
// of bidirectional peer fill. The coordinator relays its own cell-read
// misses here, so bytes only this worker ever computed are reachable
// from every other fleet member.
func (w *Worker) handleCell(rw http.ResponseWriter, r *http.Request) {
	api.EchoRequestID(rw, r)
	if err := w.auth.verify(r, nil); err != nil {
		w.Stats.AuthRejections.Inc()
		writeAuthError(rw, err)
		return
	}
	if body, costNs, tier := w.tiers.Get(r.PathValue("key")); tier != resultcache.TierNone {
		w.Stats.CellServes.Inc()
		serveCell(rw, body, costNs)
		return
	}
	writeFleetError(rw, http.StatusNotFound, "not_found", "", "cell not in this worker's tiers")
}
