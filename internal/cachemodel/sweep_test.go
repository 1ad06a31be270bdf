package cachemodel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/footprint"
	"repro/internal/memtrace"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// sweepFootprint is the footprint model as it was before shared writes
// walked only the writer's job's resident entries: a gid→slot map, every
// Plan and Commit computing its segment afresh, and each shared write
// swept over every (other processor, sibling) pair. sharedWrite adds what
// the scheduler then did before calling it: size the write from the
// TouchRate difference, drop writes under half a line, and pass the
// writer's siblings in task-index order. Its results are the contract the
// Footprint model must reproduce bit for bit.
type sweepFootprint struct {
	procs []*footprint.Cache
	slots map[int]int
	stats Stats
}

func newSweepFootprint(nprocs, capacity int) *sweepFootprint {
	f := &sweepFootprint{slots: make(map[int]int)}
	for i := 0; i < nprocs; i++ {
		f.procs = append(f.procs, footprint.MustNew(capacity))
	}
	return f
}

func (f *sweepFootprint) Reset() {
	for _, fc := range f.procs {
		fc.Reset()
	}
	clear(f.slots)
	f.stats = Stats{}
}

func (f *sweepFootprint) Resident(proc, task int) float64 {
	s, ok := f.slots[task]
	if !ok {
		return 0
	}
	return f.procs[proc].Resident(s)
}

func (f *sweepFootprint) Plan(proc, task int, pat *memtrace.Pattern, c0, w simtime.Duration, r0 float64) float64 {
	f.stats.Plans++
	return footprint.Segment(pat, c0, c0+w, r0)
}

func (f *sweepFootprint) Commit(proc, task int, pat *memtrace.Pattern, c0, w simtime.Duration, r0 float64) float64 {
	f.stats.Commits++
	s, ok := f.slots[task]
	if !ok {
		s = len(f.slots)
		f.slots[task] = s
	}
	return f.procs[proc].RunSegment(s, pat, c0, c0+w, r0)
}

func (f *sweepFootprint) sharedWrite(fromProc, writer int, jobTasks []int, pat *memtrace.Pattern, c0, w simtime.Duration, shared float64) float64 {
	if shared <= 0 || w <= 0 {
		return 0
	}
	lines := (pat.TouchRate(c0+w) - pat.TouchRate(c0)) * shared
	if lines < 0.5 {
		return 0
	}
	var slots []int
	for _, sib := range jobTasks {
		if s, ok := f.slots[sib]; ok && sib != writer {
			slots = append(slots, s)
		}
	}
	total := 0.0
	for p, fc := range f.procs {
		if p == fromProc {
			continue
		}
		for _, s := range slots {
			total += fc.Invalidate(s, lines)
		}
	}
	f.stats.Flushes++
	f.stats.InvalLines += total
	return total
}

// TestFootprintMatchesPerPairSweep drives the Footprint model and the
// per-pair sweep through identical seeded sequences shaped like the
// scheduler's — dispatches that record the surviving footprint, planned
// segments committed whole or cut short, shared writes of every size from
// none to whole footprints, residency queries and resets — on caches small
// enough that writes and loads remove entries (reordering the rest). Every
// returned value, every Resident(processor, task) and the Stats must agree
// bitwise after every step.
func TestFootprintMatchesPerPairSweep(t *testing.T) {
	const nprocs, njobs = 4, 3
	pats := []memtrace.Pattern{memtrace.MVAPattern(), memtrace.MatrixPattern(), memtrace.GravityPattern()}
	sharedFracs := []float64{0, 0.001, 0.03, 0.2, 1}
	bits := math.Float64bits
	for seed := uint64(1); seed <= 24; seed++ {
		rng := xrand.New(seed, 0x5eed)
		capacity := 50 + rng.Intn(3000)
		got, err := NewFootprint(nprocs, capacity)
		if err != nil {
			t.Fatal(err)
		}
		want := newSweepFootprint(nprocs, capacity)
		// Each job has 1-4 tasks; a task runs on one processor at a time,
		// from compute c0 into its current dispatch with r0 resident then.
		type task struct {
			id, job, proc int
			c0            simtime.Duration
			r0            float64
		}
		var tasks []*task
		jobTasks := make([][]int, njobs)
		for j := 0; j < njobs; j++ {
			for k := 0; k < 1+rng.Intn(4); k++ {
				tasks = append(tasks, &task{id: TaskID(j, k), job: j, proc: -1})
				jobTasks[j] = append(jobTasks[j], TaskID(j, k))
			}
		}
		check := func(step int, what string, g, w float64) {
			t.Helper()
			if bits(g) != bits(w) {
				t.Fatalf("seed %d step %d %s: Footprint %v, per-pair sweep %v", seed, step, what, g, w)
			}
		}
		for step := 0; step < 600; step++ {
			tk := tasks[rng.Intn(len(tasks))]
			pat := &pats[tk.job]
			switch op := rng.Intn(10); {
			case op < 2 || tk.proc < 0: // (re)dispatch onto a processor
				tk.proc, tk.c0 = rng.Intn(nprocs), 0
				tk.r0 = got.Resident(tk.proc, tk.id)
				check(step, "dispatch Resident", tk.r0, want.Resident(tk.proc, tk.id))
			case op < 9: // a segment, maybe planned, maybe cut short, then its shared write
				w, r0 := simtime.Duration(1+rng.Intn(60))*simtime.Millisecond, tk.r0
				if rng.Intn(4) > 0 {
					check(step, "Plan", got.Plan(tk.proc, tk.id, pat, tk.c0, w, r0),
						want.Plan(tk.proc, tk.id, pat, tk.c0, w, r0))
					switch rng.Intn(6) {
					case 0, 1:
						w = w.Scale(rng.Float64())
					case 2: // not the scheduler's way, but a Model user's
						r0 /= 2
					}
				}
				check(step, "Commit", got.Commit(tk.proc, tk.id, pat, tk.c0, w, r0),
					want.Commit(tk.proc, tk.id, pat, tk.c0, w, r0))
				shared := sharedFracs[rng.Intn(len(sharedFracs))]
				if len(jobTasks[tk.job]) > 1 { // the scheduler's guard
					check(step, "InvalidateShared",
						got.InvalidateShared(tk.proc, tk.id, pat, tk.c0, w, shared),
						want.sharedWrite(tk.proc, tk.id, jobTasks[tk.job], pat, tk.c0, w, shared))
				}
				tk.c0 += w
			default:
				if rng.Intn(20) == 0 {
					got.Reset()
					want.Reset()
					for _, tk := range tasks {
						tk.proc = -1
					}
				}
			}
			for p := 0; p < nprocs; p++ {
				for _, tk := range tasks {
					check(step, fmt.Sprintf("Resident(%d, %#x)", p, tk.id),
						got.Resident(p, tk.id), want.Resident(p, tk.id))
				}
			}
			gs, ws := got.Stats(), want.stats
			if gs.Plans != ws.Plans || gs.Commits != ws.Commits || gs.Flushes != ws.Flushes ||
				bits(gs.InvalLines) != bits(ws.InvalLines) {
				t.Fatalf("seed %d step %d: Stats %+v, per-pair sweep %+v", seed, step, gs, ws)
			}
		}
	}
}

// BenchmarkFootprintInvalidateShared measures one shared write of a
// scheduler-shaped footprint model: 16 processors each holding entries of
// three jobs' tasks, the writer's job with 8 tasks spread over them, so
// that a write reaches 14 sibling entries. As in the scheduler, each write
// follows the writer's commit of the same interval. Each write takes one
// line from each sibling entry; the model is refilled, off the clock,
// before any entry can drain away, so every iteration does the same work.
func BenchmarkFootprintInvalidateShared(b *testing.B) {
	const nprocs, refill = 16, 64
	pats := []memtrace.Pattern{memtrace.MVAPattern(), memtrace.MatrixPattern(), memtrace.GravityPattern()}
	f, err := NewFootprint(nprocs, symCfg().Lines())
	if err != nil {
		b.Fatal(err)
	}
	writer, pat := TaskID(0, 0), &pats[0]
	c0, w := 50*simtime.Millisecond, simtime.Millisecond
	fill := func() {
		f.Reset()
		for p := 0; p < nprocs; p++ {
			for j := range pats {
				f.Commit(p, TaskID(j, (p+j)%8), &pats[j], 0, c0, 0)
			}
		}
		f.Commit(0, writer, pat, c0, w, 0)
	}
	fill()
	for p := 0; p < nprocs; p++ {
		if r := f.Resident(p, TaskID(0, p%8)); r < 2*refill {
			b.Fatalf("processor %d holds %v lines of its job-0 task, too few to write to %d times", p, r, refill)
		}
	}
	shared := 1 / (pat.TouchRate(c0+w) - pat.TouchRate(c0)) // one line per write
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%refill == refill-1 {
			b.StopTimer()
			fill()
			b.StartTimer()
		}
		if f.InvalidateShared(0, writer, pat, c0, w, shared) == 0 {
			b.Fatal("the write invalidated nothing")
		}
	}
}
