package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// randomApp builds a random small application: a layered DAG with random
// widths and thread works, and a random (valid) reference pattern.
func randomApp(rng *xrand.Source, name string) workload.App {
	var b workload.GraphBuilder
	layers := 1 + rng.Intn(4)
	var prev []workload.ThreadID
	for l := 0; l < layers; l++ {
		width := 1 + rng.Intn(12)
		var cur []workload.ThreadID
		for w := 0; w < width; w++ {
			work := simtime.Duration(10+rng.Intn(300)) * simtime.Millisecond
			id := b.AddThread(work)
			// Random dependencies on the previous layer.
			for _, p := range prev {
				if rng.Intn(3) == 0 {
					b.AddDep(p, id)
				}
			}
			cur = append(cur, id)
		}
		prev = cur
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	pat := workload.MVA().Pattern
	return workload.App{
		Name:       name,
		Graph:      g,
		Pattern:    pat,
		SharedFrac: float64(rng.Intn(10)) / 100,
	}
}

// TestQuickPoliciesSurviveRandomWorkloads is the policy robustness fuzz:
// arbitrary DAG mixes must complete under every policy with conserved work
// and consistent metrics, an allocator snapshot equal to a full rebuild at
// every policy event, and Figure-1 counts that add up.
func TestQuickPoliciesSurviveRandomWorkloads(t *testing.T) {
	withSnapshotOracle(t)
	policies := []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-NoPri",
		"Dyn-Aff-Delay", "TimeShare-RR", "TimeShare-Aff"}
	f := func(seed uint64) bool {
		rng := xrand.New(seed, 0xf022)
		mc := machine.Symmetry()
		mc.Processors = 2 + rng.Intn(15)
		njobs := 1 + rng.Intn(3)
		var apps []workload.App
		for j := 0; j < njobs; j++ {
			apps = append(apps, randomApp(rng, "RND"))
		}
		pol, _ := core.ByName(policies[rng.Intn(len(policies))])
		res, err := Run(Config{Machine: mc, Policy: pol, Apps: apps, Seed: seed})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i, j := range res.Jobs {
			if j.ResponseTime <= 0 {
				return false
			}
			want := apps[i].Graph.TotalWork()
			diff := j.Work - want
			if diff < 0 {
				diff = -diff
			}
			if diff > want/100+simtime.Millisecond {
				t.Logf("seed %d job %d: work %v, want %v", seed, i, j.Work, want)
				return false
			}
			if j.AvgAlloc < 0 || j.AvgAlloc > float64(mc.Processors) {
				return false
			}
			if j.AffinityHits > j.Reallocations {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTraceStreamInvariants validates the recorded decision stream itself:
// every dispatch/preempt pairing is well-formed per processor, and no
// dispatch targets a job outside its arrival..completion window.
func TestTraceStreamInvariants(t *testing.T) {
	pol, _ := core.ByName("Dyn-Aff-Delay")
	log := &trace.Log{}
	_, err := Run(Config{
		Machine: mc16(),
		Policy:  pol,
		Apps:    []workload.App{smallMatrix(), smallGravity(), smallMVA()},
		Seed:    3,
		Trace:   log,
	})
	if err != nil {
		t.Fatal(err)
	}
	arrived := map[int]bool{}
	completed := map[int]bool{}
	running := map[int]int{} // proc -> job currently dispatched, -1 none
	for p := 0; p < mc16().Processors; p++ {
		running[p] = -1
	}
	var prev simtime.Time
	for i, e := range log.Events() {
		if e.At < prev {
			t.Fatalf("event %d out of time order", i)
		}
		prev = e.At
		switch e.Kind {
		case trace.JobArrive:
			arrived[e.Job] = true
		case trace.JobComplete:
			if !arrived[e.Job] {
				t.Fatalf("event %d: job %d completed before arriving", i, e.Job)
			}
			completed[e.Job] = true
		case trace.Dispatch:
			if !arrived[e.Job] || completed[e.Job] {
				t.Fatalf("event %d: dispatch for job %d outside its window", i, e.Job)
			}
			running[e.Proc] = e.Job
		case trace.Preempt:
			if running[e.Proc] != e.Job {
				t.Fatalf("event %d: preempt of job %d on cpu%d which runs %d",
					i, e.Job, e.Proc, running[e.Proc])
			}
			running[e.Proc] = -1
		case trace.Idle, trace.Yield:
			// Idle marks end of execution on the proc.
			running[e.Proc] = -1
		case trace.Release:
			running[e.Proc] = -1
		}
	}
	for j := range arrived {
		if !completed[j] {
			t.Errorf("job %d arrived but never completed", j)
		}
	}
}
