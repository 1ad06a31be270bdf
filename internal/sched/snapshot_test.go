package sched

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/workload"
)

// rebuildSnapshot is the allocator snapshot built from scratch out of the
// engine's authoritative run state: every job, task and processor is read
// again. The engine publishes the same snapshot incrementally; this full
// rebuild is the oracle it is held to. (Credits are the one quantity the
// engine integrates in the snapshot itself, so they are copied.)
func rebuildSnapshot(e *engine, s *alloc.State) {
	s.Reset(len(e.procs), len(e.jobs))
	for _, j := range e.jobs {
		s.Active[j.id] = j.arrived && !j.done
		s.Credit[j.id] = e.st.Credit[j.id]
		s.Demand[j.id] = j.job.Demand()
		s.Alloc[j.id] = j.curAlloc
		s.MaxPar[j.id] = j.app.MaxParallelism()
		if !s.Active[j.id] {
			continue
		}
		// Desired processors, most critical tasks first: preempted tasks
		// hold in-progress threads; idle tasks can take new work when the
		// job has ready threads.
		for _, t := range j.tasks {
			if t.state == taskPreempted && t.lastProc >= 0 {
				s.Desired[j.id] = append(s.Desired[j.id],
					alloc.DesiredProc{Proc: t.lastProc, Task: t.ref})
			}
		}
		if j.job.ReadyCount() > 0 {
			for _, t := range j.tasks {
				if t.state == taskIdle && t.lastProc >= 0 {
					s.Desired[j.id] = append(s.Desired[j.id],
						alloc.DesiredProc{Proc: t.lastProc, Task: t.ref})
				}
			}
		}
	}
	for _, p := range e.procs {
		s.ProcJob[p.id] = p.job
		s.ProcWorking[p.id] = p.running
		s.ProcYield[p.id] = p.yield && !p.running
		s.ProcLastTask[p.id] = p.lastTask
		if p.lastTask.Valid() {
			lj := e.jobs[p.lastTask.Job]
			if lj.arrived && !lj.done {
				lt := lj.tasks[p.lastTask.Task]
				s.LastTaskResumable[p.id] = lt.state == taskPreempted ||
					(lt.state == taskIdle && lj.job.ReadyCount() > 0)
			}
		}
	}
}

// sameSnapshot reports whether two snapshots agree in every field a policy
// reads — every exported field, a nil and an empty Desired list alike:
// reflect.DeepEqual of their publicViews, without the reflection.
func sameSnapshot(a, b *alloc.State) bool {
	if a.Procs != b.Procs || !slices.Equal(a.Active, b.Active) || !slices.Equal(a.Demand, b.Demand) ||
		!slices.Equal(a.Alloc, b.Alloc) || !slices.Equal(a.Credit, b.Credit) ||
		!slices.Equal(a.MaxPar, b.MaxPar) || !slices.Equal(a.ProcJob, b.ProcJob) ||
		!slices.Equal(a.ProcWorking, b.ProcWorking) || !slices.Equal(a.ProcYield, b.ProcYield) ||
		!slices.Equal(a.ProcLastTask, b.ProcLastTask) ||
		!slices.Equal(a.LastTaskResumable, b.LastTaskResumable) || len(a.Desired) != len(b.Desired) {
		return false
	}
	for j := range a.Desired {
		if !slices.Equal(a.Desired[j], b.Desired[j]) {
			return false
		}
	}
	return true
}

// publicView is the part of a State a policy reads: every exported field,
// with each Desired list copied so that a nil and an empty list compare
// equal (the State's private query scratch is not part of the snapshot).
// It serves the diagnosis of a mismatch; sameSnapshot is the check.
func publicView(s *alloc.State) alloc.State {
	v := alloc.State{
		Procs: s.Procs, Active: s.Active, Demand: s.Demand, Alloc: s.Alloc,
		Credit: s.Credit, MaxPar: s.MaxPar, ProcJob: s.ProcJob,
		ProcWorking: s.ProcWorking, ProcYield: s.ProcYield,
		ProcLastTask: s.ProcLastTask, LastTaskResumable: s.LastTaskResumable,
		Desired: make([][]alloc.DesiredProc, len(s.Desired)),
	}
	for j, d := range s.Desired {
		v.Desired[j] = append([]alloc.DesiredProc{}, d...)
	}
	return v
}

// snapshotDiff names the State fields in which got and want differ.
func snapshotDiff(got, want alloc.State) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	out := ""
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		if !f.IsExported() || reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			continue
		}
		out += fmt.Sprintf("\n  %s: incremental %v, rebuilt %v", f.Name, gv.Field(i), wv.Field(i))
	}
	return out
}

// checkFigure1Counts checks that a run's dispatch classification adds up:
// every reallocation is charged exactly one of P^A and P^NA, a migration is
// a P^NA charge, and the per-job counts sum to the run totals.
func checkFigure1Counts(res Result) error {
	st := res.Stats
	if st.PACharges+st.PNACharges != st.Reallocations {
		return fmt.Errorf("P^A %d + P^NA %d charges != %d reallocations",
			st.PACharges, st.PNACharges, st.Reallocations)
	}
	if st.Migrations > st.PNACharges {
		return fmt.Errorf("%d migrations > %d P^NA charges", st.Migrations, st.PNACharges)
	}
	var reallocs, hits uint64
	for _, j := range res.Jobs {
		reallocs += uint64(j.Reallocations)
		hits += uint64(j.AffinityHits)
	}
	if reallocs != st.Reallocations {
		return fmt.Errorf("jobs' reallocations sum to %d, run counted %d", reallocs, st.Reallocations)
	}
	if hits != st.PACharges {
		return fmt.Errorf("jobs' affinity hits sum to %d, run charged P^A %d", hits, st.PACharges)
	}
	return nil
}

// snapshotOracle checks, before every Rebalance, that the incrementally
// published snapshot equals a full rebuild, and checks the Figure-1 counts
// of every finished run. It reports the first few failures.
type snapshotOracle struct {
	t         testing.TB
	snapshots atomic.Int64
	runs      atomic.Int64
	rebuilt   sync.Pool // of *alloc.State; engines run in parallel
	mu        sync.Mutex
	failures  int
}

func (o *snapshotOracle) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failures++
	if o.failures <= 3 {
		o.t.Errorf(format, args...)
	}
}

func (o *snapshotOracle) snapshot(e *engine) {
	n := o.snapshots.Add(1)
	want, _ := o.rebuilt.Get().(*alloc.State)
	if want == nil {
		want = &alloc.State{}
	}
	defer o.rebuilt.Put(want)
	rebuildSnapshot(e, want)
	if !sameSnapshot(e.st, want) {
		o.fail("%s: snapshot %d at %v diverged from a full rebuild:%s",
			e.pol.Name(), n, e.now(), snapshotDiff(publicView(e.st), publicView(want)))
	}
}

func (o *snapshotOracle) finished(e *engine, res Result) {
	o.runs.Add(1)
	if err := checkFigure1Counts(res); err != nil {
		o.fail("%s run: %v", res.Policy, err)
	}
}

// withSnapshotOracle installs a snapshotOracle on every engine the test
// runs, until it ends. Tests that install one must not run in parallel.
func withSnapshotOracle(t testing.TB) *snapshotOracle {
	t.Helper()
	o := &snapshotOracle{t: t}
	observer = o
	t.Cleanup(func() { observer = nil })
	return o
}

// TestSnapshotOracleEveryPolicy holds the incremental snapshot to the full
// rebuild under every policy, on the paper's mixes with shared data, and
// requires that the oracle really saw the policy events.
func TestSnapshotOracleEveryPolicy(t *testing.T) {
	o := withSnapshotOracle(t)
	for _, name := range core.PolicyNames() {
		for _, mix := range [][]workload.App{
			{smallMVA(), smallMatrix(), smallGravity()},
			{smallGravity(), smallGravity()},
		} {
			pol, _ := core.ByName(name)
			if _, err := Run(Config{Machine: mc16(), Policy: pol, Apps: mix, Seed: 9}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	if o.snapshots.Load() == 0 || o.runs.Load() != int64(2*len(core.PolicyNames())) {
		t.Fatalf("oracle saw %d snapshots over %d runs", o.snapshots.Load(), o.runs.Load())
	}
}

// TestOverwrittenEntriesRepublished runs a policy that, after deciding,
// scribbles on every processor and job through Assign: the next policy
// event must show the engine's state again, not the scribbles, so the run
// is identical to one without them.
func TestOverwrittenEntriesRepublished(t *testing.T) {
	withSnapshotOracle(t)
	run := func(scribble bool) Result {
		var pol alloc.Policy = core.NewDynAff()
		if scribble {
			pol = scribbler{pol}
		}
		res, err := Run(Config{Machine: mc16(), Policy: pol,
			Apps: []workload.App{smallMVA(), smallGravity()}, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	requireSameResult(t, "scribbled", run(true), run(false))
}

// scribbler wraps a policy, and after each of its Rebalance calls assigns
// every processor to job 0 in the snapshot without deciding so.
type scribbler struct{ alloc.Policy }

func (s scribbler) Rebalance(st *alloc.State, trig alloc.Trigger, arg int) []alloc.Decision {
	decs := s.Policy.Rebalance(st, trig, arg)
	for p := 0; p < st.Procs; p++ {
		st.Assign(p, 0)
	}
	return decs
}
