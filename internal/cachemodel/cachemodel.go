// Package cachemodel abstracts per-processor cache behaviour for the
// discrete-event scheduler, with interchangeable implementations:
//
//   - Footprint: the fast analytic occupancy model (internal/footprint)
//     used for the paper-scale experiments;
//   - Exact: a reference implementation that replays every task's actual
//     memory reference stream (internal/memtrace) through the exact
//     set-associative simulator (internal/cache); and
//   - ExactNaive: the same exact model driven through the original
//     clone-and-replay-twice protocol, retained as the test oracle the
//     fast single-replay path is held bitwise equal to.
//
// The exact model is orders of magnitude slower than the analytic one and
// exists to validate it at the whole-system level: running the same
// scheduling experiment under both must produce the same qualitative
// conclusions (see the sched package's cross-model tests and
// BenchmarkAblationExactEngine).
//
// # Plan/commit protocol
//
// The scheduler plans a whole execution segment up front (it needs the miss
// count to schedule the completion event), but a segment may be cut short
// by preemption. The Model interface therefore splits segment processing:
// Plan estimates the misses of a prospective compute interval without
// observably changing state; Commit applies the prefix that actually
// executed. Because per-processor caches are touched by exactly one task at
// a time, no other task can interleave cache accesses between a task's Plan
// and its Commit on the same processor.
//
// The fast exact model exploits that: Plan replays the segment ONCE against
// the live cache under an undo journal (cache.BeginJournal) after saving the
// generator position (memtrace.Mark), and parks the result as a pending
// plan. When Commit then confirms the full segment — the common case — the
// journal is kept (cache.CommitJournal) and the recorded miss count is
// returned with no second replay and no clone. When the segment is cut
// short (preemption), or the planned state is disturbed before commit (a
// sibling's coherency invalidation, a Resident query, a re-Plan), the
// pending plan is resolved: the journal rolls back and the generator
// restores, leaving exactly the state the naive protocol would have, and
// Commit replays the actual prefix live. Differential tests and a fuzz
// target drive Exact and ExactNaive through identical call sequences and
// require bitwise-equal results.
package cachemodel

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/footprint"
	"repro/internal/memtrace"
	"repro/internal/simtime"
)

// Model is the scheduler's view of the per-processor caches. Tasks are
// named by the ids TaskID builds, and a task's reference pattern must be
// the same in every call between Resets: the exact model builds a task's
// stream from it on first use, and the footprint model memoizes per task.
type Model interface {
	// Resident returns (an estimate of) the number of cache lines task
	// has resident on proc.
	Resident(proc, task int) float64
	// Plan estimates the misses incurred if task executed the compute
	// interval [c0, c0+w) of its current dispatch on proc, where r0 was
	// its residency when the dispatch began. Plan must not observably
	// change state. The pattern is passed by pointer so the per-event
	// call converts to the footprint.Profile interface without
	// heap-allocating a copy.
	Plan(proc, task int, pat *memtrace.Pattern, c0, w simtime.Duration, r0 float64) float64
	// Commit records that task actually executed [c0, c0+w) on proc and
	// returns the misses incurred. For a full segment (same arguments as
	// the preceding Plan) the result equals the plan.
	Commit(proc, task int, pat *memtrace.Pattern, c0, w simtime.Duration, r0 float64) float64
	// InvalidateShared models coherency traffic: task writer executed
	// [c0, c0+w) of pat on fromProc (the interval of its last Commit there),
	// and the fraction shared of the distinct lines it touched
	// (pat.TouchRate(c0+w) − pat.TouchRate(c0)) were writes to job-shared
	// data. Fewer than half a line written is no traffic: it returns 0 and
	// counts no flush. Otherwise up to that many lines of every other task
	// of the writer's job (JobOf) are invalidated on every OTHER processor,
	// processor by processor in index order and, within a processor, in
	// task-id order, and it returns the total lines invalidated.
	InvalidateShared(fromProc, writer int, pat *memtrace.Pattern, c0, w simtime.Duration, shared float64) float64
	// Reset empties every per-processor cache (cold start) while retaining
	// allocated capacity, so one model instance can serve many simulation
	// runs. A reset model is indistinguishable from a freshly built one.
	Reset()
	// Stats returns cumulative operation counters since construction or
	// the last Reset. Only protocol-invariant quantities are counted
	// (call counts and returned invalidation totals, never journal or
	// rollback internals), so the exact model's fast and naive protocols
	// report identical Stats for identical call sequences.
	Stats() Stats
	// Name identifies the model for reports.
	Name() string
}

// TaskIndexBits is the width of the within-job field of a task id.
const TaskIndexBits = 20

// TaskID returns the id the models key a task's cache residency by: the
// job and the task's within-job index packed so that all of a job's tasks
// share JobOf and ascend in index order. Index must be below
// 1<<TaskIndexBits - 1.
func TaskID(job, index int) int { return job<<TaskIndexBits | (index + 1) }

// JobOf returns the job a task id belongs to.
func JobOf(id int) int { return id >> TaskIndexBits }

// Stats are a cache model's cumulative operation counters. All fields
// are deterministic functions of the call sequence the scheduler drives,
// independent of the model's internal protocol.
type Stats struct {
	Plans      uint64  // Plan calls
	Commits    uint64  // Commit calls
	Flushes    uint64  // InvalidateShared sweeps (coherency invalidation ops)
	InvalLines float64 // total lines invalidated by those sweeps
}

// Footprint is the analytic occupancy model (the default).
type Footprint struct {
	procs []footprint.Cache // by value: one indirection less per access
	// slotOf[JobOf(id)][id's index field] is 1 + the dense slot the
	// footprint.Cache entries of task id are keyed by (0: none yet); slots
	// are assigned in order of first Commit, and slotID maps them back.
	slotOf [][]int32
	slotID []int
	// held[j] lists where job j's tasks have lines resident, ordered by
	// processor and then task id: exactly the entries a shared write by a
	// task of job j may invalidate.
	held    [][]heldEntry
	taskBuf []int // reindex scratch
	// plans[p] is the segment last planned or committed on processor p:
	// Commit reuses the plan's miss count when it commits exactly that
	// segment, and InvalidateShared and the next Plan there reuse its
	// TouchRate values.
	plans []footprintPlan
	stats Stats
}

// heldEntry names one resident footprint.Cache entry: processor and slot.
type heldEntry struct{ proc, slot int32 }

// footprintPlan memoizes one footprint.Segment computation for w > 0: the
// pattern's TouchRate at both ends of [c0, c0+w) and the miss count for
// r0. All are pure functions of the task's pattern and these arguments,
// and a task's pattern is fixed between Resets (see Model).
type footprintPlan struct {
	task       int
	pat        *memtrace.Pattern
	c0, w      simtime.Duration
	r0, misses float64
	start, end float64 // pat.TouchRate(c0), pat.TouchRate(c0 + w)
}

// span returns pat.TouchRate at c0 and at c0+w (w > 0), taking what it can
// from proc's memo: the same interval, the same start, or (for a task
// continuing on proc) a start where the memo's interval ended.
func (f *Footprint) span(proc, task int, pat *memtrace.Pattern, c0, w simtime.Duration) (start, end float64) {
	pl := &f.plans[proc]
	switch {
	case pl.task != task || pl.pat != pat || pl.w <= 0:
		start = pat.TouchRate(c0)
	case pl.c0 == c0:
		if pl.w == w {
			return pl.start, pl.end
		}
		start = pl.start
	case pl.c0+pl.w == c0:
		start = pl.end
	default:
		start = pat.TouchRate(c0)
	}
	return start, pat.TouchRate(c0 + w)
}

// segment returns footprint.Segment(pat, c0, c0+w, r0), from proc's memo
// when it holds exactly this segment, and leaves the segment memoized.
func (f *Footprint) segment(proc, task int, pat *memtrace.Pattern, c0, w simtime.Duration, r0 float64) float64 {
	if w <= 0 {
		return 0
	}
	pl := &f.plans[proc]
	if pl.task == task && pl.pat == pat && pl.c0 == c0 && pl.w == w && pl.r0 == r0 {
		return pl.misses
	}
	start, end := f.span(proc, task, pat, c0, w)
	m := footprint.Misses(pat, end-start, r0)
	*pl = footprintPlan{task: task, pat: pat, c0: c0, w: w, r0: r0, misses: m, start: start, end: end}
	return m
}

// NewFootprint builds the analytic model for nprocs processors with caches
// of the given capacity.
func NewFootprint(nprocs, capacityLines int) (*Footprint, error) {
	if nprocs <= 0 {
		return nil, fmt.Errorf("cachemodel: need at least one processor")
	}
	f := &Footprint{plans: make([]footprintPlan, nprocs)}
	for i := 0; i < nprocs; i++ {
		fc, err := footprint.New(capacityLines)
		if err != nil {
			return nil, err
		}
		f.procs = append(f.procs, *fc)
	}
	return f, nil
}

// Name implements Model.
func (f *Footprint) Name() string { return "footprint" }

// Reset implements Model.
func (f *Footprint) Reset() {
	for p := range f.procs {
		f.procs[p].Reset()
	}
	for _, row := range f.slotOf {
		clear(row)
	}
	f.slotID = f.slotID[:0]
	for j := range f.held {
		f.held[j] = f.held[j][:0]
	}
	clear(f.plans)
	f.stats = Stats{}
}

// Stats implements Model.
func (f *Footprint) Stats() Stats { return f.stats }

// slot returns task id's dense slot, assigning the next one when create is
// set and the task has none yet.
func (f *Footprint) slot(id int, create bool) (int, bool) {
	j, k := JobOf(id), id&(1<<TaskIndexBits-1)
	if uint(j) < uint(len(f.slotOf)) && k < len(f.slotOf[j]) && f.slotOf[j][k] > 0 {
		return int(f.slotOf[j][k] - 1), true
	}
	if !create {
		return 0, false
	}
	for j >= len(f.slotOf) {
		f.slotOf = append(f.slotOf, nil)
	}
	if k >= len(f.slotOf[j]) {
		f.slotOf[j] = append(f.slotOf[j], make([]int32, k+1-len(f.slotOf[j]))...)
	}
	s := len(f.slotID)
	f.slotID = append(f.slotID, id)
	f.slotOf[j][k] = int32(s + 1)
	return s, true
}

// Resident implements Model.
func (f *Footprint) Resident(proc, task int) float64 {
	s, ok := f.slot(task, false)
	if !ok {
		return 0
	}
	return f.procs[proc].Resident(s)
}

// Plan implements Model.
func (f *Footprint) Plan(proc, task int, pat *memtrace.Pattern, c0, w simtime.Duration, r0 float64) float64 {
	f.stats.Plans++
	return f.segment(proc, task, pat, c0, w, r0)
}

// Commit implements Model. A full segment's miss count comes from its Plan.
func (f *Footprint) Commit(proc, task int, pat *memtrace.Pattern, c0, w simtime.Duration, r0 float64) float64 {
	f.stats.Commits++
	s, _ := f.slot(task, true)
	m := f.segment(proc, task, pat, c0, w, r0)
	fc := &f.procs[proc]
	had, removals := fc.Resident(s) > 0, fc.Removals()
	fc.Load(s, m)
	switch {
	case fc.Removals() != removals:
		f.reindex(proc) // the load displaced other tasks entirely
	case !had && fc.Resident(s) > 0:
		f.hold(proc, s)
	}
	return m
}

// hold records that slot s became resident on processor p.
func (f *Footprint) hold(p, s int) {
	id := f.slotID[s]
	j := JobOf(id)
	for j >= len(f.held) {
		f.held = append(f.held, nil)
	}
	l := f.held[j]
	i := len(l)
	for i > 0 && (int(l[i-1].proc) > p || int(l[i-1].proc) == p && f.slotID[l[i-1].slot] > id) {
		i--
	}
	f.held[j] = slices.Insert(l, i, heldEntry{proc: int32(p), slot: int32(s)})
}

// reindex rebuilds processor p's held entries from its resident entries.
func (f *Footprint) reindex(p int) {
	for j, l := range f.held {
		f.held[j] = slices.DeleteFunc(l, func(h heldEntry) bool { return int(h.proc) == p })
	}
	f.taskBuf = f.procs[p].AppendTasks(f.taskBuf[:0])
	for _, s := range f.taskBuf {
		f.hold(p, s)
	}
}

// InvalidateShared implements Model. It visits only the entries of the
// writer's job resident on each other processor, not every (processor,
// sibling) pair: a pair with nothing resident only ever added +0.0 to the
// total and changed nothing, so skipping it keeps the sum and the caches
// bit-identical. The held lists are in task-id order because removing an
// entry reorders the rest: the order of application is part of the result.
func (f *Footprint) InvalidateShared(fromProc, writer int, pat *memtrace.Pattern, c0, w simtime.Duration, shared float64) float64 {
	if w <= 0 {
		return 0
	}
	start, end := f.span(fromProc, writer, pat, c0, w)
	lines := (end - start) * shared
	if lines < 0.5 {
		return 0
	}
	total := 0.0
	if j := JobOf(writer); j >= 0 && j < len(f.held) {
		ws, ok := f.slot(writer, false)
		if !ok {
			ws = -1
		}
		held := f.held[j]
		for i := 0; i < len(held); i++ {
			h := held[i]
			if int(h.proc) == fromProc || int(h.slot) == ws {
				continue
			}
			fc := &f.procs[h.proc]
			removals := fc.Removals()
			total += fc.Invalidate(int(h.slot), lines)
			if fc.Removals() != removals { // all of the entry's lines went
				held = slices.Delete(held, i, i+1)
				i--
			}
		}
		f.held[j] = held
	}
	f.stats.Flushes++
	f.stats.InvalLines += total
	return total
}

// pendingPlan holds one processor's speculative segment between Plan and
// Commit: the planned miss count, the generator position before the replay
// (for rollback), and the segment identity Commit must match to keep it.
type pendingPlan struct {
	active bool
	task   int
	w      simtime.Duration
	misses float64
	mark   memtrace.Mark
}

// Exact replays actual reference streams through exact per-processor
// caches. Each task owns a deterministic trace generator whose position
// advances exactly with the compute the scheduler commits.
type Exact struct {
	cfg   cache.Config
	procs []*cache.Cache
	gens  map[int]*memtrace.Generator // task gid -> its stream
	// jobTasks[j] lists, in ascending id order, job j's tasks that have a
	// stream: the only ones that can hold lines anywhere.
	jobTasks [][]int
	seed     uint64
	pend     []pendingPlan // per-processor speculative segment
	naive    bool          // clone-and-replay-twice oracle protocol
	stats    Stats
}

// NewExact builds the exact model for nprocs processors with the given
// cache geometry. seed fixes all trace streams.
func NewExact(nprocs int, cfg cache.Config, seed uint64) (*Exact, error) {
	if nprocs <= 0 {
		return nil, fmt.Errorf("cachemodel: need at least one processor")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Exact{cfg: cfg, gens: make(map[int]*memtrace.Generator), seed: seed,
		pend: make([]pendingPlan, nprocs)}
	for i := 0; i < nprocs; i++ {
		e.procs = append(e.procs, cache.MustNew(cfg))
	}
	return e, nil
}

// NewExactNaive builds the exact model locked to the original
// clone-and-replay-twice protocol. It is the oracle the single-replay fast
// path is differentially tested against; production runs should never use
// it.
func NewExactNaive(nprocs int, cfg cache.Config, seed uint64) (*Exact, error) {
	e, err := NewExact(nprocs, cfg, seed)
	if err != nil {
		return nil, err
	}
	e.naive = true
	return e, nil
}

// Name implements Model.
func (e *Exact) Name() string {
	if e.naive {
		return "exact-naive"
	}
	return "exact"
}

// Reset implements Model: caches are flushed and every task's reference
// stream restarts from its seed, exactly as on first use.
func (e *Exact) Reset() {
	for p := range e.procs {
		e.resolve(p)
		e.procs[p].Flush()
	}
	clear(e.gens)
	for j := range e.jobTasks {
		e.jobTasks[j] = e.jobTasks[j][:0]
	}
	e.stats = Stats{}
}

// Stats implements Model.
func (e *Exact) Stats() Stats { return e.stats }

// gen returns (creating on first use) task's reference stream. Tasks get
// disjoint address spaces and decorrelated seeds.
func (e *Exact) gen(task int, pat *memtrace.Pattern) *memtrace.Generator {
	if g, ok := e.gens[task]; ok {
		return g
	}
	base := uint64(task+1) << 32
	g := memtrace.NewGenerator(*pat, base, e.seed^uint64(task)*0x9e3779b97f4a7c15)
	e.gens[task] = g
	j := JobOf(task)
	for j >= len(e.jobTasks) {
		e.jobTasks = append(e.jobTasks, nil)
	}
	ids := e.jobTasks[j]
	i := len(ids)
	for i > 0 && ids[i-1] > task {
		i--
	}
	e.jobTasks[j] = slices.Insert(ids, i, task)
	return g
}

// resolve abandons proc's pending plan, if any: the cache journal rolls
// back and the task's generator restores to its pre-Plan position, leaving
// exactly the state the naive protocol would have at the same point.
func (e *Exact) resolve(proc int) {
	p := &e.pend[proc]
	if !p.active {
		return
	}
	p.active = false
	e.procs[proc].Rollback()
	e.gens[p.task].Restore(&p.mark)
}

// Resident implements Model.
func (e *Exact) Resident(proc, task int) float64 {
	// A pending plan's speculative lines must not leak into residency
	// queries (the naive protocol's Plan leaves no trace). The scheduler
	// only queries an idle processor, so this resolve never fires there;
	// it keeps direct Model users and the differential tests exact.
	e.resolve(proc)
	return float64(e.procs[proc].Resident(task))
}

// replayBlock is the address-batch size for replay: large enough to
// amortize generator bookkeeping, small enough to stay on the stack.
const replayBlock = 256

// replay drives owner's stream g for w of compute against c, counting
// misses. The reference count of an interval is deterministic (one
// reference per think-time gap), so the stream is generated in blocks.
func replay(c *cache.Cache, g *memtrace.Generator, owner int, w simtime.Duration) float64 {
	n := g.RefsFor(w)
	misses := 0
	var buf [replayBlock]uint64
	for n > 0 {
		k := n
		if k > replayBlock {
			k = replayBlock
		}
		blk := buf[:k]
		g.FillBlock(blk)
		for _, addr := range blk {
			if !c.Access(owner, addr) {
				misses++
			}
		}
		n -= k
	}
	return float64(misses)
}

// Plan implements Model. The fast path replays the prospective interval
// once on the live cache under an undo journal and parks the result as the
// processor's pending plan; in naive (oracle) mode it replays on cloned
// cache and stream state instead.
func (e *Exact) Plan(proc, task int, pat *memtrace.Pattern, c0, w simtime.Duration, r0 float64) float64 {
	e.stats.Plans++
	if w <= 0 {
		return 0
	}
	if e.naive {
		cc := e.procs[proc].Clone()
		gg := e.gen(task, pat).Clone()
		return replay(cc, gg, task, w)
	}
	e.resolve(proc)
	g := e.gen(task, pat)
	p := &e.pend[proc]
	g.Save(&p.mark)
	c := e.procs[proc]
	c.BeginJournal()
	m := replay(c, g, task, w)
	p.active = true
	p.task = task
	p.w = w
	p.misses = m
	return m
}

// Commit implements Model. When the committed segment matches the pending
// plan — the common, full-segment case — the journaled replay becomes real
// at no cost. Otherwise (preemption truncated the segment, or the plan was
// already resolved) the executed prefix replays live.
func (e *Exact) Commit(proc, task int, pat *memtrace.Pattern, c0, w simtime.Duration, r0 float64) float64 {
	e.stats.Commits++
	if e.naive {
		if w <= 0 {
			return 0
		}
		return replay(e.procs[proc], e.gen(task, pat), task, w)
	}
	if w <= 0 {
		e.resolve(proc)
		return 0
	}
	p := &e.pend[proc]
	if p.active && p.task == task && p.w == w {
		p.active = false
		e.procs[proc].CommitJournal()
		return p.misses
	}
	e.resolve(proc)
	return replay(e.procs[proc], e.gen(task, pat), task, w)
}

// InvalidateShared implements Model. A sibling's write can land between a
// processor's Plan and Commit; the journaled speculative state must not
// absorb it. Any target with lines to lose first resolves its pending plan
// so the invalidation applies to the same pre-replay state the naive
// protocol would mutate. Targets provably clean in both the speculative and
// rolled-back state skip both the resolve and the scan. Siblings without a
// stream hold nothing anywhere and are not visited at all.
func (e *Exact) InvalidateShared(fromProc, writer int, pat *memtrace.Pattern, c0, w simtime.Duration, shared float64) float64 {
	lines := (pat.TouchRate(c0+w) - pat.TouchRate(c0)) * shared
	if lines < 0.5 {
		return 0
	}
	var siblings []int
	if j := JobOf(writer); j >= 0 && j < len(e.jobTasks) {
		siblings = e.jobTasks[j]
	}
	n := int(lines + 0.5)
	total := 0
	for p, c := range e.procs {
		if p == fromProc {
			continue
		}
		for _, sib := range siblings {
			if sib == writer {
				continue
			}
			if !e.naive && c.Resident(sib) == 0 && c.ResidentAtJournalStart(sib) == 0 {
				continue
			}
			e.resolve(p)
			total += c.InvalidateN(sib, n)
		}
	}
	e.stats.Flushes++
	e.stats.InvalLines += float64(total)
	return float64(total)
}

// Kind selects a model implementation in configuration structs.
type Kind int

// Available model kinds.
const (
	// KindFootprint is the fast analytic model (default).
	KindFootprint Kind = iota
	// KindExact replays full reference streams; orders of magnitude
	// slower than footprint, for validation.
	KindExact
	// KindExactNaive is KindExact driven through the original
	// clone-and-replay-twice protocol; the differential-test oracle.
	KindExactNaive
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFootprint:
		return "footprint"
	case KindExact:
		return "exact"
	case KindExactNaive:
		return "exact-naive"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// New constructs a model of the given kind.
func New(k Kind, nprocs int, cfg cache.Config, seed uint64) (Model, error) {
	switch k {
	case KindFootprint:
		return NewFootprint(nprocs, cfg.Lines())
	case KindExact:
		return NewExact(nprocs, cfg, seed)
	case KindExactNaive:
		return NewExactNaive(nprocs, cfg, seed)
	}
	return nil, fmt.Errorf("cachemodel: unknown kind %d (valid: %s, %s, %s)",
		int(k), KindFootprint, KindExact, KindExactNaive)
}
