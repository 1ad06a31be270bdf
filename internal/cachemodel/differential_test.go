package cachemodel

import (
	"testing"
	"testing/quick"

	"repro/internal/memtrace"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// protoPatterns fixes each task's reference pattern for the differential
// drivers (a task's stream is created on first use and keyed by task id).
func protoPatterns() []memtrace.Pattern {
	return []memtrace.Pattern{
		memtrace.MVAPattern(),
		memtrace.MatrixPattern(),
		memtrace.GravityPattern(),
		memtrace.MVAPattern(),
	}
}

// driveBoth applies one protocol op to the fast model and the naive oracle
// and fails on any divergence in the returned values.
func driveBoth(t *testing.T, step int, fast, naive Model, op func(Model) float64) {
	t.Helper()
	got, want := op(fast), op(naive)
	if got != want {
		t.Fatalf("step %d: fast returned %v, naive oracle %v", step, got, want)
	}
}

// TestFastMatchesNaiveProtocol drives the single-replay fast path and the
// clone-and-replay-twice oracle through identical random Plan / Commit /
// partial-Commit / InvalidateShared / Resident / Reset sequences and
// requires bitwise-equal results — the whole-protocol version of the cache
// package's differential tests.
func TestFastMatchesNaiveProtocol(t *testing.T) {
	const nprocs, ntasks = 3, 4
	pats := protoPatterns()
	f := func(seed uint64) bool {
		fast, err := NewExact(nprocs, symCfg(), seed)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NewExactNaive(nprocs, symCfg(), seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(seed, 0x70a7)
		// planned[p] remembers the last planned (task, w) per processor so
		// the driver can commit full segments (the common case) as well as
		// truncated ones. It also enforces the scheduler invariant the fast
		// path relies on: a task runs on one processor at a time, so it is
		// never planned on a second processor while a plan for it is in
		// flight elsewhere (a pending plan advances the live stream; the
		// oracle's clone-based Plan does not).
		type plan struct {
			task int
			w    simtime.Duration
		}
		planned := make([]plan, nprocs)
		for i := range planned {
			planned[i] = plan{task: -1}
		}
		clearPlan := func(p int) { planned[p] = plan{task: -1} }
		// freeTask picks a task with no in-flight plan on a processor other
		// than p, or -1 when every task is busy.
		freeTask := func(p int) int {
			start := rng.Intn(ntasks)
			for k := 0; k < ntasks; k++ {
				task := (start + k) % ntasks
				busy := false
				for q, pl := range planned {
					if q != p && pl.task == task {
						busy = true
					}
				}
				if !busy {
					return task
				}
			}
			return -1
		}
		for step := 0; step < 250; step++ {
			p := rng.Intn(nprocs)
			w := simtime.Duration(1+rng.Intn(30)) * simtime.Millisecond
			switch rng.Intn(10) {
			case 0, 1: // plan only
				task := freeTask(p)
				if task < 0 {
					continue
				}
				pat := pats[task]
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.Plan(p, task, &pat, 0, w, 0)
				})
				planned[p] = plan{task: task, w: w}
			case 2, 3, 4, 5: // plan then commit the full segment
				task := freeTask(p)
				if task < 0 {
					continue
				}
				pat := pats[task]
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.Plan(p, task, &pat, 0, w, 0)
				})
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.Commit(p, task, &pat, 0, w, 0)
				})
				clearPlan(p)
			case 6: // commit a truncated or unplanned segment
				task, wc := freeTask(p), w
				if pl := planned[p]; pl.task >= 0 && rng.Intn(2) == 0 {
					task = pl.task
					wc = pl.w * simtime.Duration(rng.Intn(2)) / 2 // 0 or half
				}
				if task < 0 {
					continue
				}
				pat := pats[task]
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.Commit(p, task, &pat, 0, wc, 0)
				})
				clearPlan(p)
			case 7: // coherency invalidation between a sibling's plan/commit
				writer := rng.Intn(ntasks) // every task id here is of job 0
				pat := pats[writer]
				shared := float64(rng.Intn(100)) / 100
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.InvalidateShared(p, writer, &pat, 0, w, shared)
				})
			case 8: // residency query (resolves p's pending plan)
				task := rng.Intn(ntasks)
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.Resident(p, task)
				})
				clearPlan(p)
			case 9:
				if rng.Intn(10) == 0 {
					fast.Reset()
					naive.Reset()
					for i := range planned {
						clearPlan(i)
					}
				}
			}
		}
		// Final states agree everywhere.
		for p := 0; p < nprocs; p++ {
			for task := 0; task < ntasks; task++ {
				if got, want := fast.Resident(p, task), naive.Resident(p, task); got != want {
					t.Fatalf("final Resident(%d,%d): fast %v naive %v", p, task, got, want)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestCommitWithoutPlanMatchesOracle pins the cold paths: a commit with no
// preceding plan, and a zero-length commit after a plan (total truncation),
// both match the oracle.
func TestCommitWithoutPlanMatchesOracle(t *testing.T) {
	pat := memtrace.MVAPattern()
	fast, _ := NewExact(1, symCfg(), 11)
	naive, _ := NewExactNaive(1, symCfg(), 11)
	w := 40 * simtime.Millisecond

	driveBoth(t, 0, fast, naive, func(m Model) float64 {
		return m.Commit(0, 1, &pat, 0, w, 0)
	})
	// Plan then commit zero work: the plan must be fully undone.
	driveBoth(t, 1, fast, naive, func(m Model) float64 {
		return m.Plan(0, 1, &pat, w, w, 0)
	})
	driveBoth(t, 2, fast, naive, func(m Model) float64 {
		return m.Commit(0, 1, &pat, w, 0, 0)
	})
	// The next full segment sees identical state in both worlds.
	driveBoth(t, 3, fast, naive, func(m Model) float64 {
		return m.Commit(0, 1, &pat, w, w, 0)
	})
}

// BenchmarkExactSegmentFast measures the exact model's per-segment cost on
// the fast single-replay path: one Plan + full-segment Commit, the
// scheduler's common case. Compare with BenchmarkExactSegmentNaive.
func BenchmarkExactSegmentFast(b *testing.B) {
	benchSegment(b, false)
}

// BenchmarkExactSegmentNaive measures the same Plan + Commit segment under
// the original clone-and-replay-twice protocol.
func BenchmarkExactSegmentNaive(b *testing.B) {
	benchSegment(b, true)
}

func benchSegment(b *testing.B, naive bool) {
	var m Model
	var err error
	if naive {
		m, err = NewExactNaive(1, symCfg(), 1)
	} else {
		m, err = NewExact(1, symCfg(), 1)
	}
	if err != nil {
		b.Fatal(err)
	}
	pat := memtrace.MVAPattern()
	w := 10 * simtime.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c0 := simtime.Duration(i) * w
		m.Plan(0, 1, &pat, c0, w, 0)
		m.Commit(0, 1, &pat, c0, w, 0)
	}
}

// BenchmarkExactSegmentPreempt measures the rollback path: every plan is
// truncated to half before commit.
func BenchmarkExactSegmentPreempt(b *testing.B) {
	m, err := NewExact(1, symCfg(), 1)
	if err != nil {
		b.Fatal(err)
	}
	pat := memtrace.MVAPattern()
	w := 10 * simtime.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c0 := simtime.Duration(i) * w
		m.Plan(0, 1, &pat, c0, w, 0)
		m.Commit(0, 1, &pat, c0, w/2, 0)
	}
}
