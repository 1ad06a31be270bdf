package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// This file is the cell execution path: unless a test substitutes an
// opaque Config.Runner, a job is executed as its experiments.CellPlan —
// every cell is looked up in the per-cell result cache, only the missing
// ones execute, and each completed cell is cached immediately. A
// campaign cancelled mid-flight therefore leaves its finished cells
// behind, and a re-submission (or a superset campaign sharing a
// sub-grid) resumes instead of restarting. The merged body is
// byte-identical to experiments.Campaign.Run, which executes the same
// plan without a cache — the contract pinned by
// TestCellMergeMatchesMonolithic — so the campaign-level cache and the
// cell cache never disagree.

// jobEvent is one NDJSON line of GET /v1/jobs/{id}/events: a "cell"
// progress event per completed cell, then exactly one terminal event
// ("done", "failed", or "canceled") before the stream closes.
type jobEvent struct {
	APIVersion string `json:"api_version"`
	// Type is "cell" for per-cell progress, or the terminal job status.
	Type  string `json:"type"`
	JobID string `json:"job_id"`
	// Seq increments by one per event within the job, from 1.
	Seq int `json:"seq"`
	// Cell names the completed cell ("q=100ms/app=MVA"); empty on
	// terminal events.
	Cell string `json:"cell,omitempty"`
	// Index is the cell's position in the plan; -1 on terminal events.
	Index int `json:"index"`
	// Cache is "hit" (memory tier), "disk" (persistent tier), or "miss"
	// for cell events — and "miss" on terminal events, mirroring the
	// X-Cache header a synchronous submit would have carried (a job only
	// exists for a fresh run).
	Cache string `json:"cache,omitempty"`
	// Engine is the cell's resolved execution tier ("sim" or "analytic")
	// on cell events of the grid-shaped kinds; empty elsewhere.
	Engine string `json:"engine,omitempty"`
	// Worker is the advertised URL of the fleet worker that produced a
	// remotely executed cell; empty for local execution and cache tiers.
	Worker string `json:"worker,omitempty"`
	// Placement attributes the coordinator's scored placement decision
	// for a remotely executed cell ("score=… load=… rtt_ms=… penalty=…",
	// or "peer_fill" when a worker's cache tier served the bytes after
	// dispatch failed); empty for local execution and cache tiers.
	Placement      string `json:"placement,omitempty"`
	CellsTotal     int    `json:"cells_total"`
	CellsDone      int    `json:"cells_done"`
	CellsFromCache int    `json:"cells_from_cache"`
	CellsFromDisk  int    `json:"cells_from_disk"`
	// RequestID mirrors the X-Request-Id of the submitting request.
	RequestID string `json:"request_id,omitempty"`
	Error     string `json:"error,omitempty"`
	ResultURL string `json:"result_url,omitempty"`
}

// cellTracker accumulates a job's cell progress and its event log.
// Readers (status views, the events stream) and writers (the executing
// worker, setTerminal) synchronize on its own lock, never the job's.
type cellTracker struct {
	mu        sync.Mutex
	total     int
	done      int
	fromCache int
	fromDisk  int
	remote    int
	// workers counts remotely executed cells per worker URL; nil until
	// the first remote cell.
	workers map[string]int
	events  []jobEvent
	// changed is closed and replaced whenever an event is appended;
	// stream handlers park on the current instance.
	changed chan struct{}
}

func newCellTracker() *cellTracker {
	return &cellTracker{changed: make(chan struct{})}
}

func (t *cellTracker) setTotal(n int) {
	t.mu.Lock()
	t.total = n
	t.mu.Unlock()
}

func (t *cellTracker) counts() (total, done, fromCache, fromDisk int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.done, t.fromCache, t.fromDisk
}

// remoteCounts snapshots the fleet attribution: how many cells were
// executed by workers, and by whom.
func (t *cellTracker) remoteCounts() (remote int, workers map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.workers) > 0 {
		workers = make(map[string]int, len(t.workers))
		for w, n := range t.workers {
			workers[w] = n
		}
	}
	return t.remote, workers
}

// appendLocked stamps the event with the tracker's current counts and
// sequence, appends it, and wakes stream readers. Callers hold t.mu.
func (t *cellTracker) appendLocked(ev jobEvent) {
	ev.APIVersion = apiVersion
	ev.Seq = len(t.events) + 1
	ev.CellsTotal = t.total
	ev.CellsDone = t.done
	ev.CellsFromCache = t.fromCache
	ev.CellsFromDisk = t.fromDisk
	t.events = append(t.events, ev)
	close(t.changed)
	t.changed = make(chan struct{})
}

// recordCell logs one completed cell; cache is "hit" (memory), "disk"
// (persistent tier), or "miss", engine the cell's resolved tier ("" for
// kinds without one), worker the fleet worker that executed a remote
// cell ("" for local execution and cache tiers), placement the scored
// decision that routed it there.
func (t *cellTracker) recordCell(jobID, cellID string, index int, cache, engine, worker, placement string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	switch cache {
	case "hit":
		t.fromCache++
	case "disk":
		t.fromDisk++
	}
	if worker != "" {
		t.remote++
		if t.workers == nil {
			t.workers = make(map[string]int)
		}
		t.workers[worker]++
	}
	t.appendLocked(jobEvent{Type: "cell", JobID: jobID, Cell: cellID, Index: index, Cache: cache, Engine: engine, Worker: worker, Placement: placement})
}

// recordTerminal logs the job's final event. Called from setTerminal
// before j.done closes, so a stream reader woken by the close is
// guaranteed to observe it.
func (t *cellTracker) recordTerminal(ev jobEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev.Index = -1
	t.appendLocked(ev)
}

// snapshot returns the event log so far and the channel that closes on
// the next append.
func (t *cellTracker) snapshot() ([]jobEvent, <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events[:len(t.events):len(t.events)], t.changed
}

// runCells executes one job through its cell plan, reusing cached cells
// and caching fresh ones as they complete. It returns the merged
// campaign body, canonically encoded.
func (s *Server) runCells(j *job) ([]byte, error) {
	plan, err := experiments.Cells(j.kind, j.params)
	if err != nil {
		return nil, err
	}
	j.cells.setTotal(len(plan.Cells))
	ctx := obs.WithCollector(j.ctx, j.stats)
	// In coordinator mode the campaign gets one re-dispatch budget for
	// all its cells: every retry and hedge spends a unit, and exhaustion
	// degrades to local execution (never failure). Published on the job
	// so status views report budget_exhausted live.
	if s.fleet != nil {
		b := fleet.NewBudget(s.cfg.HedgeBudget)
		j.mu.Lock()
		j.budget = b
		j.mu.Unlock()
	}
	partials := make([][]byte, len(plan.Cells))
	err = parallel.ForEach(ctx, j.params.Workers, len(plan.Cells), func(ctx context.Context, i int) error {
		cell := &plan.Cells[i]
		key := resultcache.Key(cell.KeyKind, cell.KeyParams, version.Engine)
		// A disk hit is a cell some earlier process (or an evicted cache
		// generation) already simulated; Get promotes it so siblings in
		// this grid — and the next campaign — hit memory.
		if body, _, tier := s.cells.Get(key); tier != resultcache.TierNone {
			source := "hit"
			if tier == resultcache.TierDisk {
				source = "disk"
				s.metrics.cells.DiskHits.Inc()
			} else {
				s.metrics.cells.Hits.Inc()
			}
			partials[i] = body
			j.cells.recordCell(j.id, cell.ID, i, source, cell.Engine, "", "")
			return nil
		}
		s.metrics.cells.Misses.Inc()
		start := time.Now()
		// Fleet dispatch: in coordinator mode a missed cell is executed
		// on a worker, with retry/hedging absorbed inside Dispatch so
		// exactly one result ever comes back per miss — the Misses ==
		// Executions invariant is placement-independent. When dispatch
		// cannot produce a result (no live workers, budget exhausted,
		// every attempt failed), bidirectional peer fill gets one shot —
		// a worker's cache tier may still hold bytes the fleet already
		// paid for — and then the cell falls back to local execution:
		// the fleet accelerates campaigns, never gates them.
		var body []byte
		var workerURL, placement string
		costNs := uint64(0)
		if s.fleet != nil {
			if resp, err := s.fleet.DispatchBudget(ctx, fleet.ExecuteRequest{
				Kind:      plan.Kind,
				Params:    j.params,
				Index:     i,
				CellID:    cell.ID,
				Key:       key,
				RequestID: j.requestID,
			}, j.budget); err == nil {
				body, workerURL, costNs, placement = resp.Body, resp.Worker, resp.ExecNs, resp.Placement
			} else if pb, pc, pw, ok := s.fleet.PeerFill(ctx, key); ok {
				body, workerURL, costNs, placement = pb, pw, pc, "peer_fill"
			}
		}
		if body == nil {
			// Label the execution so CPU profiles attribute samples to the
			// campaign kind and grid coordinate they simulated.
			var res any
			var runErr error
			pprof.Do(ctx, pprof.Labels("campaign", plan.Kind, "cell", cell.ID), func(ctx context.Context) {
				res, runErr = cell.Run(ctx)
			})
			if runErr != nil {
				return runErr
			}
			var err error
			body, err = report.CanonicalJSON(res)
			if err != nil {
				return fmt.Errorf("encode cell %s: %w", cell.ID, err)
			}
		}
		s.metrics.cells.Executions.Inc()
		elapsed := time.Since(start)
		span(&s.metrics.cells.ExecNs, elapsed)
		// Engine-tier accounting: kinds without an engine choice always
		// simulate, so anything not explicitly analytic counts as sim.
		if cell.Engine == experiments.EngineAnalytic {
			s.metrics.cells.EngineAnalytic.Inc()
			span(&s.metrics.cells.EngineAnalyticNs, elapsed)
		} else {
			s.metrics.cells.EngineSim.Inc()
			span(&s.metrics.cells.EngineSimNs, elapsed)
		}
		// Cache the partial the moment it completes — in both tiers: a
		// drain or cancel later in the campaign keeps this cell's work,
		// and the write-behind disk Put survives a process death. The
		// exec time rides along as the eviction currency (a remote cell
		// keeps the worker's measured cost, so eviction still weighs
		// simulation time rather than network time).
		if costNs == 0 {
			costNs = uint64(elapsed)
		}
		s.cells.Put(key, body, costNs)
		partials[i] = body
		j.cells.recordCell(j.id, cell.ID, i, "miss", cell.Engine, workerURL, placement)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.fleet != nil && j.budget.Exhausted() {
		s.fleet.Stats.BudgetExhausted.Inc()
	}
	start := time.Now()
	res, err := plan.Merge(j.ctx, partials)
	if err != nil {
		return nil, err
	}
	body, err := report.CanonicalJSON(res)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	span(&s.metrics.cells.MergeNs, time.Since(start))
	return body, nil
}

// handleJobEvents streams a job's progress as NDJSON: one jobEvent line
// per completed cell, then the terminal event, then EOF. A stream opened
// after the job finished replays the recorded log — the stream is
// deterministic with respect to the job, not the connection.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	emit := func(events []jobEvent) {
		for _, ev := range events[sent:] {
			enc.Encode(ev)
		}
		sent = len(events)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for {
		events, changed := j.cells.snapshot()
		emit(events)
		select {
		case <-j.done:
			// The terminal event is recorded before done closes, so one
			// final snapshot drains everything.
			events, _ := j.cells.snapshot()
			emit(events)
			return
		default:
		}
		select {
		case <-changed:
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
}
