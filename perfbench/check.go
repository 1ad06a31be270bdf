package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/experiments"
	"repro/internal/report"
)

// referenceSum is the SHA-256 of the body the monolithic path produces
// for r: experiments.CampaignByKind(kind).Run then report.CanonicalJSON,
// with no cell plan, cache, store or fleet in between.
func referenceSum(r request) ([32]byte, error) {
	camp, ok := experiments.CampaignByKind(r.Kind)
	if !ok {
		return [32]byte{}, fmt.Errorf("unknown kind %q", r.Kind)
	}
	p := r.Params
	p.Workers = 1 // references run one per core
	res, err := camp.Run(context.Background(), p)
	if err != nil {
		return [32]byte{}, fmt.Errorf("reference %s: %w", r.body(), err)
	}
	b, err := report.CanonicalJSON(res)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// sampleSize is how many responses a cold workload checks against the
// reference after its timed phase.
const sampleSize = 6

// checkBodies compares responses with their references and marks each
// mismatch as a failure. With all set every successful response is
// checked (one reference per distinct request); otherwise a seeded
// sample of sampleSize successful responses is. It returns the number of
// responses checked and of mismatches.
func checkBodies(outs []outcome, all bool, seed uint64, name string) (checked, mismatched int, err error) {
	var idx []int
	for i := range outs {
		if outs[i].ok() {
			idx = append(idx, i)
		}
	}
	if !all && len(idx) > sampleSize {
		r := newRNG(seed, name+"/check")
		for i := 0; i < sampleSize; i++ {
			j := i + r.intn(len(idx)-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		idx = idx[:sampleSize]
	}
	// One reference per distinct request, computed on every core.
	refs := make(map[string][32]byte)
	var todo []request
	for _, i := range idx {
		k := string(outs[i].req.body())
		if _, ok := refs[k]; !ok {
			refs[k] = [32]byte{}
			todo = append(todo, outs[i].req)
		}
	}
	sums := make([][32]byte, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	next := make(chan int)
	for c := 0; c < numCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				sums[j], errs[j] = referenceSum(todo[j])
			}
		}()
	}
	for j := range todo {
		next <- j
	}
	close(next)
	wg.Wait()
	for j, r := range todo {
		if errs[j] != nil {
			return 0, 0, errs[j]
		}
		refs[string(r.body())] = sums[j]
	}
	for _, i := range idx {
		o := &outs[i]
		checked++
		if o.sum != refs[string(o.req.body())] {
			mismatched++
			o.err = fmt.Errorf("body differs from the monolithic reference")
		}
	}
	return checked, mismatched, nil
}

// checkInvariants tests the timed phase's /metrics deltas against the
// service and fleet invariants DESIGN.md §6/§7 promise. front is the
// daemon clients talk to (the coordinator in a fleet); all are every
// daemon's deltas.
func checkInvariants(front metricSet, all []metricSet, fleetOn bool) []string {
	var bad []string
	if m, e := front["affinityd_cell_misses_total"], front["affinityd_cell_executions_total"]; m != e {
		bad = append(bad, fmt.Sprintf("cell misses %v != executions %v", m, e))
	}
	if fleetOn {
		d := front["affinityd_fleet_dispatches_total"]
		r := front["affinityd_fleet_remote_cells_total"]
		dup := front["affinityd_fleet_duplicates_discarded_total"]
		f := front["affinityd_fleet_attempt_failures_total"]
		if d != r+dup+f {
			bad = append(bad, fmt.Sprintf("fleet dispatches %v != remote cells %v + duplicates %v + failures %v", d, r, dup, f))
		}
	}
	for i, m := range all {
		if v := m["affinityd_store_dropped_total"]; v != 0 {
			bad = append(bad, fmt.Sprintf("daemon %d dropped %v store writes", i, v))
		}
		if v := m["affinityd_jobs_failed_total"]; v != 0 {
			bad = append(bad, fmt.Sprintf("daemon %d failed %v jobs", i, v))
		}
	}
	return bad
}
