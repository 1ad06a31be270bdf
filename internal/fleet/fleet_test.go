package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/diskstore"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// coordServer mounts a coordinator's fleet endpoints behind an httptest
// listener, cleaned up with the test.
func coordServer(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	c.RegisterHandlers(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// registerWorker POSTs one registration for url, returning the response
// status.
func registerWorker(t *testing.T, coordURL, workerURL string, capacity int, engine string) int {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{URL: workerURL, Capacity: capacity, EngineVersion: engine})
	resp, err := http.Post(coordURL+PathRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// stubWorker is a fake worker endpoint that answers execute requests
// with a valid response after a per-request delay.
type stubWorker struct {
	ts *httptest.Server
	// delay returns how long request number n should take.
	delay func(n int) time.Duration

	mu     sync.Mutex
	served int
}

func newStubWorker(t *testing.T, delay func(n int) time.Duration) *stubWorker {
	t.Helper()
	s := &stubWorker{delay: delay}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathExecute, func(w http.ResponseWriter, r *http.Request) {
		var req ExecuteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeFleetError(w, http.StatusBadRequest, "invalid_request", "", err.Error())
			return
		}
		s.mu.Lock()
		n := s.served
		s.served++
		s.mu.Unlock()
		if s.delay != nil {
			select {
			case <-time.After(s.delay(n)):
			case <-r.Context().Done():
				return
			}
		}
		writeFleetJSON(w, http.StatusOK, ExecuteResponse{
			CellID: req.CellID,
			Key:    req.Key,
			Worker: s.ts.URL,
			Source: "executed",
			ExecNs: 1,
			Body:   json.RawMessage(fmt.Sprintf(`{"cell":%q}`, req.CellID)),
		})
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func (s *stubWorker) servedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// execReq builds a dispatchable request for an arbitrary cell id; the
// stub workers echo identity, so any id works.
func execReq(id string) ExecuteRequest {
	return ExecuteRequest{Kind: "compare", Index: 0, CellID: id, Key: "key-" + id}
}

func TestRegistrationHeartbeatAndExpiry(t *testing.T) {
	c := NewCoordinator(Config{WorkerTTL: 80 * time.Millisecond})
	ts := coordServer(t, c)

	if code := registerWorker(t, ts.URL, "http://w1", 2, version.Engine); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	if got := c.LiveWorkers(); got != 1 {
		t.Fatalf("LiveWorkers = %d, want 1", got)
	}
	// A re-register is a heartbeat: same worker, no new registration.
	if code := registerWorker(t, ts.URL, "http://w1", 2, version.Engine); code != http.StatusOK {
		t.Fatalf("heartbeat: status %d", code)
	}
	if got := c.Stats.Registrations.Load(); got != 1 {
		t.Errorf("Registrations = %d after heartbeat, want 1", got)
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].URL != "http://w1" || ws[0].Capacity != 2 {
		t.Errorf("Workers() = %+v, want one w1 with capacity 2", ws)
	}

	// Heartbeats stop: the worker expires after the TTL.
	deadline := time.Now().Add(5 * time.Second)
	for c.LiveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker did not expire after TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Stats.Expirations.Load(); got != 1 {
		t.Errorf("Expirations = %d, want 1", got)
	}
}

func TestRegisterRejectsEngineSkew(t *testing.T) {
	c := NewCoordinator(Config{})
	ts := coordServer(t, c)
	if code := registerWorker(t, ts.URL, "http://w1", 2, "someone-elses-engine"); code != http.StatusConflict {
		t.Fatalf("skewed register: status %d, want 409", code)
	}
	if got := c.LiveWorkers(); got != 0 {
		t.Errorf("skewed worker admitted: LiveWorkers = %d", got)
	}
}

func TestDispatchNoWorkersFallsBack(t *testing.T) {
	c := NewCoordinator(Config{})
	if _, err := c.Dispatch(context.Background(), execReq("c1")); err != ErrNoWorkers {
		t.Fatalf("Dispatch with no workers: %v, want ErrNoWorkers", err)
	}
	if got := c.Stats.Fallbacks.Load(); got != 1 {
		t.Errorf("Fallbacks = %d, want 1", got)
	}
}

// TestDispatchRetriesDeadWorker: a dispatch that lands on a dead worker
// retries on a live one, and the dead worker is dropped from the
// registry immediately — not left to soak up redispatches until TTL.
func TestDispatchRetriesDeadWorker(t *testing.T) {
	c := NewCoordinator(Config{Backoff: time.Millisecond, HedgeDelay: time.Minute})
	ts := coordServer(t, c)
	live := newStubWorker(t, nil)

	// The dead worker: a listener that is already closed.
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close()

	// The dead worker advertises far more capacity, so the scorer's load
	// term ((inflight+1)/capacity) deterministically places the first
	// attempt on it — both are unmeasured, so RTT contributes equally.
	registerWorker(t, ts.URL, deadURL, 16, version.Engine)
	registerWorker(t, ts.URL, live.ts.URL, 1, version.Engine)

	resp, err := c.Dispatch(context.Background(), execReq("c0"))
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if resp.Worker != live.ts.URL {
		t.Fatalf("dispatch won by %q, want the live stub", resp.Worker)
	}
	if c.Stats.Retries.Load() == 0 {
		t.Fatalf("no dispatch retried off the dead worker (failures=%d)", c.Stats.Failures.Load())
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].URL != live.ts.URL {
		t.Errorf("dead worker still registered: %+v", ws)
	}
	if got := c.Stats.Expirations.Load(); got != 1 {
		t.Errorf("Expirations = %d, want 1 (connection-failure drop)", got)
	}
}

// TestHedgedDispatchFirstValidWins: a straggling first attempt is hedged
// to a second worker; the fast hedge's result is delivered, and the
// straggler's late result is discarded as a duplicate — never a second
// delivery.
func TestHedgedDispatchFirstValidWins(t *testing.T) {
	c := NewCoordinator(Config{HedgeDelay: 10 * time.Millisecond, Backoff: time.Millisecond})
	ts := coordServer(t, c)
	slow := newStubWorker(t, func(int) time.Duration { return 300 * time.Millisecond })
	fast := newStubWorker(t, nil)

	// The straggler advertises more capacity, so the scorer's load term
	// deterministically places the first attempt on it (neither has an
	// RTT measurement yet); the hedge then races the fast worker.
	registerWorker(t, ts.URL, slow.ts.URL, 16, version.Engine)
	registerWorker(t, ts.URL, fast.ts.URL, 1, version.Engine)

	start := time.Now()
	resp, err := c.Dispatch(context.Background(), execReq("c0"))
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	// The fast worker wins as the hedge racing a 300ms straggler.
	if resp.Worker != fast.ts.URL {
		t.Fatalf("dispatch won by %q after %v, want the fast worker", resp.Worker, time.Since(start))
	}
	if c.Stats.Hedges.Load() != 1 || c.Stats.HedgeWins.Load() != 1 {
		t.Fatalf("hedge accounting: hedges=%d wins=%d, want 1/1",
			c.Stats.Hedges.Load(), c.Stats.HedgeWins.Load())
	}
	// The straggler's late result drains as a discarded duplicate — it is
	// never delivered as a second response.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats.Duplicates.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("straggler result never drained as duplicate (dup=%d fail=%d)",
				c.Stats.Duplicates.Load(), c.Stats.Failures.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHedgeDeterminismProperty is the dispatch-determinism property test:
// across many dispatches with adversarially jittered worker latencies
// (some straggling past the hedge delay, some fast), every Dispatch call
// delivers exactly one result, and every launched attempt is accounted
// exactly once as the win, a discarded duplicate, or a failure — so
// duplicates can never double-fold into cell stats or a merge, and the
// caller's misses == execution-attempts invariant holds fleet-wide.
func TestHedgeDeterminismProperty(t *testing.T) {
	c := NewCoordinator(Config{HedgeDelay: 3 * time.Millisecond, Backoff: time.Millisecond})
	ts := coordServer(t, c)
	rng := rand.New(rand.NewSource(1))
	var mu sync.Mutex
	jitter := func(int) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		// Half the requests straggle past the hedge delay.
		if rng.Intn(2) == 0 {
			return time.Duration(4+rng.Intn(8)) * time.Millisecond
		}
		return time.Duration(rng.Intn(2)) * time.Millisecond
	}
	w1 := newStubWorker(t, jitter)
	w2 := newStubWorker(t, jitter)
	registerWorker(t, ts.URL, w1.ts.URL, 64, version.Engine)
	registerWorker(t, ts.URL, w2.ts.URL, 64, version.Engine)

	const cells = 48
	delivered := make([]*ExecuteResponse, cells)
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Dispatch(context.Background(), execReq(fmt.Sprintf("c%03d", i)))
			if err != nil {
				t.Errorf("dispatch %d: %v", i, err)
				return
			}
			delivered[i] = resp
		}(i)
	}
	wg.Wait()

	// Exactly one delivery per call, each echoing its own cell identity.
	for i, resp := range delivered {
		if resp == nil {
			t.Fatalf("cell %d delivered nothing", i)
		}
		if want := fmt.Sprintf("c%03d", i); resp.CellID != want {
			t.Errorf("cell %d delivered %q", i, resp.CellID)
		}
	}
	if got := c.Stats.RemoteCells.Load(); got != cells {
		t.Errorf("RemoteCells = %d, want %d (one win per dispatch)", got, cells)
	}

	// Every launched attempt resolves exactly once: win, duplicate, or
	// failure. Late stragglers drain in the background, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := c.Stats.Dispatches.Load()
		resolved := c.Stats.RemoteCells.Load() + c.Stats.Duplicates.Load() + c.Stats.Failures.Load()
		if d == resolved {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("attempt accounting never converged: dispatches=%d wins=%d dup=%d fail=%d",
				d, c.Stats.RemoteCells.Load(), c.Stats.Duplicates.Load(), c.Stats.Failures.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The workers' served totals bound the duplicates: everything served
	// beyond one per cell was hedging overshoot, discarded.
	served := w1.servedCount() + w2.servedCount()
	if served < cells {
		t.Errorf("workers served %d < %d cells", served, cells)
	}
	if dup := int(c.Stats.Duplicates.Load()); dup > served-cells {
		t.Errorf("Duplicates = %d exceeds overshoot %d", dup, served-cells)
	}
}

// TestWorkerEndToEnd runs the real Worker against a real cell plan: the
// worker registers itself, verifies the dispatched plan coordinate,
// executes the cell, and returns bytes identical to a local run; a
// dispatch whose key does not match the plan is refused.
func TestWorkerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation cell in -short mode")
	}
	cache := resultcache.New(1 << 20)
	c := NewCoordinator(Config{Cache: cache, HedgeDelay: time.Minute})
	coord := coordServer(t, c)

	w := NewWorker(WorkerConfig{Coordinator: coord.URL, Capacity: 4, Heartbeat: 50 * time.Millisecond})
	wmux := http.NewServeMux()
	w.RegisterHandlers(wmux)
	wts := httptest.NewServer(wmux)
	t.Cleanup(wts.Close)
	w.Start(wts.URL)
	t.Cleanup(w.Stop)

	if got := c.LiveWorkers(); got != 1 {
		t.Fatalf("worker did not register synchronously: LiveWorkers = %d", got)
	}

	campaign, ok := experiments.CampaignByKind("compare")
	if !ok {
		t.Fatal("compare kind unregistered")
	}
	params, err := campaign.Normalize(experiments.CampaignParams{
		Fast: true, Replications: 1, Mix: 5, Policies: []string{"Equipartition"}, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.Cells("compare", params)
	if err != nil {
		t.Fatal(err)
	}
	cell := &plan.Cells[0]
	key := resultcache.Key(cell.KeyKind, cell.KeyParams, version.Engine)

	// Local reference execution.
	res, err := cell.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.CanonicalJSON(res)
	if err != nil {
		t.Fatal(err)
	}

	req := ExecuteRequest{Kind: "compare", Params: params, Index: 0, CellID: cell.ID, Key: key}
	resp, err := c.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if resp.Source != "executed" || !bytes.Equal(resp.Body, want) {
		t.Fatalf("remote cell source=%q, body differs from local run: %.120s", resp.Source, resp.Body)
	}
	if got := w.Stats.Executions.Load(); got != 1 {
		t.Errorf("worker Executions = %d, want 1", got)
	}

	// The worker verifies plan identity before its tier lookups, so a
	// mismatched key must be refused, not served.
	badReq := req
	badReq.Key = "some-other-key"
	if _, err := c.Dispatch(context.Background(), badReq); err == nil {
		t.Fatal("dispatch with mismatched key succeeded; worker must refuse")
	}
}

// compareCellKey plans a one-cell compare campaign and returns an
// execute request for its cell, without running it.
func compareCellKey(t *testing.T) ExecuteRequest {
	t.Helper()
	campaign, ok := experiments.CampaignByKind("compare")
	if !ok {
		t.Fatal("compare kind unregistered")
	}
	params, err := campaign.Normalize(experiments.CampaignParams{
		Fast: true, Replications: 1, Mix: 5, Policies: []string{"Equipartition"}, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.Cells("compare", params)
	if err != nil {
		t.Fatal(err)
	}
	cell := &plan.Cells[0]
	return ExecuteRequest{Kind: "compare", Params: params, Index: 0, CellID: cell.ID,
		Key: resultcache.Key(cell.KeyKind, cell.KeyParams, version.Engine)}
}

// openStore opens a diskstore in a fresh temp dir, closed with the test.
func openStore(t *testing.T) *diskstore.Store {
	t.Helper()
	s, err := diskstore.Open(t.TempDir(), diskstore.Options{EngineVersion: version.Engine})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func syncStore(t *testing.T, s *diskstore.Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerAsksNobody: the coordinator dispatches a cell only after its
// own tiers missed, so a worker with empty tiers executes it without
// contacting the coordinator — even when the coordinator's cache holds
// the cell under its true key. Registration and heartbeats are the only
// requests the coordinator sees.
func TestWorkerAsksNobody(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation cell in -short mode")
	}
	req := compareCellKey(t)
	plan, err := experiments.Cells(req.Kind, req.Params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Cells[req.Index].Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.CanonicalJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	cache := resultcache.New(1 << 20)
	cache.PutCost(req.Key, want, 123)
	c := NewCoordinator(Config{Cache: cache, HedgeDelay: time.Minute})
	var mu sync.Mutex
	var seen []string
	cmux := http.NewServeMux()
	c.RegisterHandlers(cmux)
	coord := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+r.URL.Path)
		mu.Unlock()
		cmux.ServeHTTP(rw, r)
	}))
	t.Cleanup(coord.Close)

	w := NewWorker(WorkerConfig{Coordinator: coord.URL, Cache: resultcache.New(1 << 20), Heartbeat: 50 * time.Millisecond})
	wmux := http.NewServeMux()
	w.RegisterHandlers(wmux)
	wts := httptest.NewServer(wmux)
	t.Cleanup(wts.Close)
	w.Start(wts.URL)
	t.Cleanup(w.Stop)

	resp, err := c.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if resp.Source != "executed" || !bytes.Equal(resp.Body, want) {
		t.Fatalf("source=%q body=%.120s, want an execution equal to the local run", resp.Source, resp.Body)
	}
	if got := w.Stats.Executions.Load(); got != 1 {
		t.Errorf("worker Executions = %d, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, r := range seen {
		if r != "POST "+PathRegister {
			t.Errorf("coordinator saw %q; a worker may only register and heartbeat", r)
		}
	}
}

// TestCoordinatorPeerFill: when dispatch yields no result, PeerFill
// recovers a cell from a worker's tiers — here a disk-only entry, found
// after the probe of a hung worker times out — promotes it into both of
// the coordinator's tiers with the worker's cost, and counts one
// WorkerFills. A key no worker holds is a miss.
func TestCoordinatorPeerFill(t *testing.T) {
	const key, cost = "disk-only-cell", 456
	want := []byte(`{"cell":"on disk"}`)
	wstore := openStore(t)
	wstore.Put(key, want, cost)
	syncStore(t, wstore)
	holder := NewWorker(WorkerConfig{Cache: resultcache.New(1 << 20), Store: wstore})
	hmux := http.NewServeMux()
	holder.RegisterHandlers(hmux)
	hts := httptest.NewServer(hmux)
	t.Cleanup(hts.Close)

	// The hung worker answers no cell read until the test ends.
	release := make(chan struct{})
	var hungProbes atomic.Int64
	hung := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		hungProbes.Add(1)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) })

	cache, store := resultcache.New(1<<20), openStore(t)
	c := NewCoordinator(Config{Cache: cache, Store: store, PeerFillTimeout: 50 * time.Millisecond})
	ts := coordServer(t, c)
	// The hung worker advertises more capacity, so the scorer's load
	// term ranks it first and PeerFill must time its probe out.
	registerWorker(t, ts.URL, hung.URL, 16, version.Engine)
	registerWorker(t, ts.URL, hts.URL, 1, version.Engine)

	body, gotCost, worker, ok := c.PeerFill(context.Background(), key)
	if !ok || !bytes.Equal(body, want) || gotCost != cost || worker != hts.URL {
		t.Fatalf("PeerFill = (%s, %d, %q, %v), want (%s, %d, %q, true)", body, gotCost, worker, ok, want, cost, hts.URL)
	}
	if got := hungProbes.Load(); got != 1 {
		t.Errorf("hung worker probed %d times, want 1 (ranked first, then timed out)", got)
	}
	if got, gc, ok := cache.GetCost(key); !ok || !bytes.Equal(got, want) || gc != cost {
		t.Errorf("coordinator memory after PeerFill: ok=%v cost=%d, want the cell with cost %d", ok, gc, cost)
	}
	syncStore(t, store)
	if got, gc, ok := store.Get(key); !ok || !bytes.Equal(got, want) || gc != cost {
		t.Errorf("coordinator store after PeerFill: ok=%v cost=%d, want the cell with cost %d", ok, gc, cost)
	}
	if got := c.Stats.WorkerFills.Load(); got != 1 {
		t.Errorf("WorkerFills = %d, want 1", got)
	}

	if _, _, _, ok := c.PeerFill(context.Background(), "no-such-cell"); ok {
		t.Error("PeerFill found a cell no worker holds")
	}
	if got := c.Stats.WorkerFills.Load(); got != 1 {
		t.Errorf("WorkerFills = %d after a miss, want 1", got)
	}
}

// TestCellReadPromotesDiskHits: the worker's cell-read endpoint promotes
// a disk-only cell into its memory tier with its original cost, so the
// next peer read does not re-read and re-CRC the frame.
func TestCellReadPromotesDiskHits(t *testing.T) {
	t.Run("worker", func(t *testing.T) {
		const key, cost = "disk-only-cell", 456
		want := []byte(`{"cell":"on disk"}`)
		cache, store := resultcache.New(1<<20), openStore(t)
		store.Put(key, want, cost)
		syncStore(t, store)
		mux := http.NewServeMux()
		NewWorker(WorkerConfig{Cache: cache, Store: store}).RegisterHandlers(mux)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)

		resp, err := http.Get(ts.URL + PathCells + key)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("GET cell: %d %s", resp.StatusCode, body)
		}
		if got, c, ok := cache.GetCost(key); !ok || !bytes.Equal(got, want) || c != cost {
			t.Errorf("memory tier after read: ok=%v cost=%d, want the cell with cost %d", ok, c, cost)
		}
	})
}
