package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resultcache"
)

// deadlockProbe is how many fresh-seed all-mix Dyn-Aff-Delay compare
// campaigns the traced run plans to count deadlocking cells.
const deadlockProbe = 20

// tracedRun sets up in-process tiers as the workload's daemons had them
// (warm-up, then a restart that re-opens the store), replays the first
// w.traced requests of the seed's sequence through the pipeline under a
// CPU profile, and writes the spans out. Replaying a fixed prefix, not
// the timed window, makes the replay's counts a function of the seed.
func tracedRun(w *workload, o options, runDir string) (*traceResult, error) {
	ctx := context.Background()
	dir := filepath.Join(runDir, "traced")
	storeDir := filepath.Join(dir, "store")
	cacheBytes := int64(64) << 20
	if w.cacheMB > 0 {
		cacheBytes = int64(w.cacheMB) << 20
	}
	g := newGenerator(w, o.seed)
	p := &pipeline{tr: newTracer(), stats: obs.NewCampaignStats()}
	if w.fleet {
		p.cellPar = workerParallelism
	}
	store, err := openStore(storeDir)
	if err != nil {
		return nil, err
	}
	p.store, p.bodies, p.cells = store, resultcache.New(cacheBytes), resultcache.New(cacheBytes)
	for i, r := range g.ws {
		if _, err := p.run(ctx, i, r); err != nil {
			store.Close()
			return nil, fmt.Errorf("traced warm-up: %w", err)
		}
	}
	// Restart: memory tiers are lost, the store is re-opened (and, for
	// the warm workload, re-scanned).
	if err := store.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	store, err = openStore(storeDir)
	if err != nil {
		return nil, err
	}
	openMs := float64(time.Since(t0)) / 1e6
	defer store.Close()
	p.store, p.bodies, p.cells = store, resultcache.New(cacheBytes), resultcache.New(cacheBytes)
	p.tr, p.stats = newTracer(), obs.NewCampaignStats()
	if w.fleet {
		f, err := startFleet(dir, p.cells, store, cacheBytes)
		if err != nil {
			return nil, err
		}
		defer f.close()
		p.coord = f.coord
	}

	n := w.traced
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = g.next()
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	gc0, busy0 := gcCPU()
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	err = p.replay(ctx, reqs)
	pprof.StopCPUProfile()
	gc1, busy1 := gcCPU()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	shares, err := packageShares(goBin, profPath)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(o.out, "traces"), 0o755); err != nil {
		return nil, err
	}
	if err := p.tr.write(filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))); err != nil {
		return nil, err
	}
	layers, roots := summarize(p.tr.spans)
	return &traceResult{
		requests: n, shares: shares, gcShare: ratio(gc1-gc0, busy1-busy0),
		sim: p.stats.Snapshot().Total, layers: layers, roots: roots,
		openMs: openMs, deadlocks: deadlockCells(o.seed),
	}, nil
}

// traceResult is what the traced replay measured.
type traceResult struct {
	requests  int
	shares    map[string]float64 // flat CPU share by repro/internal package
	gcShare   float64
	sim       obs.SimStats
	layers    map[string]*layerStats
	roots     []int64 // traced request durations, ns
	openMs    float64
	deadlocks int
}

// perLayer computes the per-layer metrics, named and in the units of
// BENCHMARK.json, from the traced replay, the timed phase's outcomes
// and its /metrics deltas (the front daemon's first).
func perLayer(tr *traceResult, e2e []outcome, deltas []metricSet) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	engineShare := 0.0
	for _, pkg := range profiledPackages {
		set(pkg+".cpu_share", "ratio", tr.shares[pkg])
	}
	for _, pkg := range enginePackages {
		engineShare += tr.shares[pkg]
	}
	set("engine.cpu_share", "ratio", engineShare)
	set("runtime.gc_cpu_share", "ratio", tr.gcShare)

	set("sched.events", "count", float64(tr.sim.Events))
	set("sched.reallocations", "count", float64(tr.sim.Reallocations))
	set("sched.pa_charges", "count", float64(tr.sim.PACharges))
	set("sched.pna_charges", "count", float64(tr.sim.PNACharges))
	set("sched.deadlock_cells", "count", float64(tr.deadlocks))
	meanNs := func(name string) float64 {
		if ls := tr.layers[name]; ls != nil {
			return ratio(float64(ls.totalN), float64(ls.calls))
		}
		return 0
	}
	simNs := 0.0
	if ls := tr.layers["engine.sim"]; ls != nil {
		simNs = float64(ls.totalN)
	}
	set("sched.ns_per_event", "ns", ratio(simNs, float64(tr.sim.Events)))
	set("measure.cell_ms", "ms", meanNs("engine.table1")/1e6)
	set("analytic.cell_us", "us", meanNs("engine.analytic")/1e3)
	set("experiments.plan_us", "us", meanNs("experiments.plan")/1e3)
	set("experiments.merge_us", "us", meanNs("experiments.merge")/1e3)
	set("report.encode_us", "us", meanNs("report.encode")/1e3)
	set("resultcache.get_us", "us", meanNs("resultcache.get")/1e3)
	set("diskstore.get_us", "us", meanNs("diskstore.get")/1e3)
	set("diskstore.put_us", "us", meanNs("diskstore.put")/1e3)
	set("diskstore.open_ms", "ms", tr.openMs)
	set("fleet.dispatch_us", "us", meanNs("fleet.dispatch")/1e3)

	front, tot := deltas[0], sum(deltas...)
	set("resultcache.body_hit_ratio", "ratio", ratio(front["affinityd_cache_hits_total"],
		front["affinityd_cache_hits_total"]+front["affinityd_cache_misses_total"]))
	set("resultcache.cell_hit_ratio", "ratio", ratio(front["affinityd_cell_hits_total"],
		front["affinityd_cell_hits_total"]+front["affinityd_cell_disk_hits_total"]+front["affinityd_cell_misses_total"]))
	set("resultcache.evictions", "count", tot["affinityd_cache_evictions_total"]+tot["affinityd_cellcache_evictions_total"])
	set("diskstore.cell_disk_hits", "count", front["affinityd_cell_disk_hits_total"])
	set("diskstore.flushed_frames", "count", tot["affinityd_store_flushed_frames_total"])
	set("diskstore.dropped", "count", tot["affinityd_store_dropped_total"])
	set("service.admit_us", "us", front.histMean("affinityd_request_admit_seconds", 1e6))
	set("service.queue_wait_ms", "ms", front.histMean("affinityd_request_queue_wait_seconds", 1e3))
	set("service.exec_ms", "ms", front.histMean("affinityd_request_exec_seconds", 1e3))
	set("service.jobs_deduped", "count", front["affinityd_jobs_deduped_total"])
	set("service.jobs_rejected", "count", front["affinityd_jobs_rejected_total"])
	set("fleet.rtt_ms", "ms", front.histMean("affinityd_fleet_rtt_seconds", 1e3))
	set("fleet.dispatches", "count", front["affinityd_fleet_dispatches_total"])
	set("fleet.retries", "count", front["affinityd_fleet_retries_total"])
	set("fleet.hedges", "count", front["affinityd_fleet_hedges_total"])
	set("fleet.duplicates", "count", front["affinityd_fleet_duplicates_discarded_total"])
	set("fleet.local_fallbacks", "count", front["affinityd_fleet_local_fallbacks_total"])
	set("fleet.peer_hit_ratio", "ratio", ratio(front["affinityd_fleet_peer_hits_total"],
		front["affinityd_fleet_peer_hits_total"]+front["affinityd_fleet_peer_misses_total"]))
	set("fleet.worker_exec_us", "us", tot.histMean("affinityd_fleet_worker_exec_seconds", 1e6))

	// Accounting: the layers' self times sum to the traced request time;
	// the e2e latency of the same requests minus it is what the traced
	// layers do not explain (HTTP, admission, queueing; less the
	// tracing's own overhead).
	var traced, seen []float64
	for _, d := range tr.roots {
		traced = append(traced, float64(d)/1e6)
	}
	for i := range e2e {
		if e2e[i].seq < tr.requests {
			seen = append(seen, float64(e2e[i].latency)/1e6)
		}
	}
	names := append([]string(nil), spanNames...)
	sort.Strings(names)
	for _, name := range names {
		self := 0.0
		if ls := tr.layers[name]; ls != nil {
			self = float64(ls.selfN) / 1e6 / float64(tr.requests)
		}
		set("trace."+name+".self_ms", "ms", self)
	}
	set("trace.request_ms", "ms", mean(traced))
	set("trace.e2e_ms", "ms", mean(seen))
	set("trace.unattributed_ms", "ms", mean(seen)-mean(traced))
	return m
}

// deadlockCells plans deadlockProbe fresh-seed all-mix compare campaigns
// under Dyn-Aff-Delay alone and counts the cells whose simulation fails.
// The sim workloads leave Dyn-Aff-Delay out because of this defect; the
// count keeps it visible until it is fixed.
func deadlockCells(seed uint64) int {
	r := newRNG(seed, "deadlock-probe")
	n := 0
	for i := 0; i < deadlockProbe; i++ {
		plan, err := experiments.Cells("compare", experiments.CampaignParams{
			Fast: true, Replications: 1, Seed: r.seed(), Policies: []string{"Dyn-Aff-Delay"},
		})
		if err != nil {
			n++
			continue
		}
		for c := range plan.Cells {
			if _, err := plan.Cells[c].Run(context.Background()); err != nil {
				n++
			}
		}
	}
	return n
}
