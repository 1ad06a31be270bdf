// Package measure reproduces the paper's Section 4 experiment: quantifying
// the per-context-switch cache penalties P^A (task resumes on a processor
// for which it has affinity, after an intervening task ran there) and P^NA
// (task resumes on a processor with no affinity, i.e. a cold cache).
//
// The experimental design follows the paper exactly. The measured program
// runs on a single processor under a special allocator that reschedules it
// every Q of its own execution time, taking one of three actions at each
// switch point:
//
//   - Stationary: the program is immediately replaced; its response time
//     RT_stationary is the baseline.
//   - Migrating: the cache is flushed (the paper streams through memory),
//     then the program is replaced, capturing the no-affinity penalty;
//     response time RT_migrating.
//   - Multiprogrammed: a task from another program runs on the processor
//     for Q, then the original is replaced, capturing the penalty incurred
//     despite affinity; response time RT_multiprog.
//
// Then P^NA = (RT_migrating − RT_stationary)/#switches and
// P^A = (RT_multiprog − RT_stationary)/#switches.
//
// "Response time" here is the measured program's own accumulated time
// (compute + its cache-miss stalls + its switch path costs), so the
// intervening program's execution does not pollute the numerator — the
// deltas isolate pure cache effects, exactly the quantities tabulated in
// the paper's Table 1.
package measure

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memtrace"
	"repro/internal/parallel"
	"repro/internal/simtime"
)

// Regime selects the action taken at each switch point.
type Regime int

// The three Section-4 regimes.
const (
	Stationary Regime = iota
	Migrating
	Multiprog
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case Stationary:
		return "stationary"
	case Migrating:
		return "migrating"
	case Multiprog:
		return "multiprog"
	}
	return fmt.Sprintf("Regime(%d)", int(r))
}

// Options configures a measurement run.
type Options struct {
	// Q is the rescheduling interval.
	Q simtime.Duration
	// Budget is the amount of pure compute the measured program executes;
	// the run ends when it is consumed.
	Budget simtime.Duration
	// Seed fixes all random walks in the run.
	Seed uint64
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Q <= 0 {
		return fmt.Errorf("measure: Q must be positive, got %v", o.Q)
	}
	if o.Budget < o.Q {
		return fmt.Errorf("measure: budget %v shorter than one quantum %v", o.Budget, o.Q)
	}
	return nil
}

// RunResult reports one single-regime run.
type RunResult struct {
	Regime Regime
	// ResponseTime is the measured program's accumulated own time.
	ResponseTime simtime.Duration
	// Switches is the number of rescheduling points that occurred.
	Switches int
	// Misses is the measured program's cache miss count.
	Misses uint64
	// Accesses is the measured program's reference count.
	Accesses uint64
}

// ownerMeasured and ownerIntervening tag cache lines in the shared cache.
const (
	ownerMeasured    = 0
	ownerIntervening = 1
)

// interveningBase keeps the intervening program's address space disjoint
// from the measured program's (separate processes share nothing).
const interveningBase = 1 << 40

// Stream is a precomputed prefix of one program's reference stream, plus a
// generator parked at the prefix end for the (rare) references beyond it.
//
// The reference streams of this experiment are fixed by (pattern, address
// base, seed) alone: think time is one gap per reference, and nothing the
// cache or the scheduler does feeds back into address generation. Every run
// of a Table 1 cell therefore replays the same measured stream, and every
// multiprogrammed run against the same intervening application consumes a
// prefix of the same intervening stream. Precomputing each stream once and
// sharing it read-only across runs (and across campaign workers) removes
// the dominant generator cost from the hot loop while staying trivially
// bitwise identical to per-reference generation. measuredStream and
// interveningStream take their streams from a process-wide memo (see
// streammemo.go), so the cells of one campaign share them too; the
// identity argument is unchanged, since a memo entry is the NewStream of
// its key.
type Stream struct {
	addrs []uint64
	gap   simtime.Duration
	tail  *memtrace.Generator // positioned after addrs; cloned, never mutated
}

// NewStream precomputes n references of the pattern's stream. A Stream is
// immutable after construction and safe for concurrent use.
func NewStream(pat memtrace.Pattern, base, seed uint64, n int) *Stream {
	g := memtrace.NewGenerator(pat, base, seed)
	s := &Stream{addrs: make([]uint64, n), gap: g.Gap()}
	g.FillBlock(s.addrs)
	s.tail = g
	return s
}

// measuredStream returns the measured program's stream for one run:
// exactly the references a budget's worth of compute performs.
func measuredStream(measured memtrace.Pattern, opts Options) *Stream {
	g := memtrace.NewGenerator(measured, 0, opts.Seed)
	return streams.get(measured, 0, opts.Seed, g.RefsFor(opts.Budget))
}

// interveningStream returns the intervening program's stream for one run.
// The amount consumed depends on cache behaviour, so the length is a
// heuristic (one budget's worth of its references); consumption beyond it
// falls back to the stream's tail generator.
func interveningStream(intervening memtrace.Pattern, opts Options) *Stream {
	g := memtrace.NewGenerator(intervening, interveningBase, opts.Seed^0x5bd1e995)
	return streams.get(intervening, interveningBase, opts.Seed^0x5bd1e995, g.RefsFor(opts.Budget))
}

// cursor is one run's private read position over a shared Stream.
type cursor struct {
	s    *Stream
	pos  int
	tail *memtrace.Generator // lazy clone of s.tail once pos passes the prefix
}

// Run performs one single-processor run of the measured pattern under the
// given regime. For Multiprog, intervening supplies the program run between
// successive dispatches of the measured one; it is ignored otherwise.
func Run(mc machine.Config, measured memtrace.Pattern, intervening memtrace.Pattern, regime Regime, opts Options) (RunResult, error) {
	if err := mc.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := opts.Validate(); err != nil {
		return RunResult{}, err
	}
	var istream *Stream
	if regime == Multiprog {
		istream = interveningStream(intervening, opts)
	}
	return runStreams(mc, measuredStream(measured, opts), istream, regime, opts)
}

// runStreams is Run over precomputed streams: one regime continued from
// the empty run state to the end of the measured stream.
func runStreams(mc machine.Config, measured *Stream, intervening *Stream, regime Regime, opts Options) (RunResult, error) {
	if err := mc.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := opts.Validate(); err != nil {
		return RunResult{}, err
	}
	st, err := newRunState(mc, measured, opts.Q)
	if err != nil {
		return RunResult{}, err
	}
	st.inter = cursor{s: intervening}
	st.replay(regime, false)
	return st.result(regime), nil
}

// runState is one run's position in the measured stream: the cache it has
// built up, the intervening program's cursor, and the measured program's
// accounting so far.
type runState struct {
	mc         machine.Config
	measured   *Stream
	q          simtime.Duration // rescheduling interval
	c          *cache.Cache
	inter      cursor
	pos        int              // next measured reference
	own        simtime.Duration // measured program's accumulated time
	nextSwitch simtime.Duration
	switches   int
	misses     uint64
}

// newRunState returns the state before the first measured reference: an
// empty cache and the first switch point one quantum away.
func newRunState(mc machine.Config, measured *Stream, q simtime.Duration) (*runState, error) {
	c, err := cache.New(mc.Cache)
	if err != nil {
		return nil, err
	}
	return &runState{mc: mc, measured: measured, q: q, c: c, nextSwitch: q}, nil
}

// fork returns an independent copy of st whose intervening program, from
// here on, is intervening. Nothing of the intervening stream has been
// consumed before the first switch action, so the cursor starts at zero.
func (st *runState) fork(intervening *Stream) *runState {
	out := *st
	out.c = st.c.Clone()
	out.inter = cursor{s: intervening}
	return &out
}

// act takes regime's action at a switch point. The measured program's own
// time is unaffected: intervening execution does not count against it.
func (st *runState) act(regime Regime) {
	switch regime {
	case Stationary:
		// Immediately replaced: no cache disturbance.
	case Migrating:
		st.c.Flush()
	case Multiprog:
		runIntervening(st.mc, st.c, &st.inter, st.q)
	}
}

// replay continues st through the measured stream under regime. A switch
// point's bookkeeping (count, path cost, next switch point) does not
// depend on the regime; with pause set, replay returns true right after
// the first switch point's bookkeeping, before its action, so the caller
// can fork the regimes there. Otherwise it runs to the end of the stream
// and returns false.
func (st *runState) replay(regime Regime, pause bool) bool {
	mc, c := st.mc, st.c
	own, nextSwitch, switches, misses := st.own, st.nextSwitch, st.switches, st.misses
	step := mc.Compute(st.measured.gap)
	addrs := st.measured.addrs
	i := st.pos
	paused := false
	for i < len(addrs) {
		addr := addrs[i]
		i++
		own += step
		if !c.Access(ownerMeasured, addr) {
			misses++
			own += mc.LineFill
		}
		if own >= nextSwitch {
			switches++
			own += mc.SwitchPath
			nextSwitch = own + st.q
			if pause {
				paused = true
				break
			}
			st.act(regime)
		}
	}
	st.pos, st.own, st.nextSwitch, st.switches, st.misses = i, own, nextSwitch, switches, misses
	return paused
}

// result reports the run as regime's.
func (st *runState) result(regime Regime) RunResult {
	return RunResult{
		Regime:       regime,
		ResponseTime: st.own,
		Switches:     st.switches,
		Misses:       st.misses,
		Accesses:     uint64(len(st.measured.addrs)),
	}
}

// interBlock is the address-batch size for the intervening stream's
// beyond-the-prefix tail path.
const interBlock = 256

// runIntervening executes the intervening program on the same cache for q
// of its own time. Its time does not count against the measured program.
func runIntervening(mc machine.Config, c *cache.Cache, cur *cursor, q simtime.Duration) {
	step := mc.Compute(cur.s.gap)
	var t simtime.Duration
	addrs := cur.s.addrs
	i := cur.pos
	for t < q && i < len(addrs) {
		t += step
		if !c.Access(ownerIntervening, addrs[i]) {
			t += mc.LineFill
		}
		i++
	}
	cur.pos = i
	if t >= q {
		return
	}
	// Prefix exhausted mid-quantum: continue on the tail generator. How
	// many more references fit depends on the misses along the way, so
	// blocks are fetched against an every-reference-hits upper bound; when
	// the quantum ends mid-block the generator rewinds to the block start
	// and re-consumes exactly the references used, landing bitwise where
	// per-call generation would.
	if cur.tail == nil {
		cur.tail = cur.s.tail.Clone()
	}
	gen := cur.tail
	var buf [interBlock]uint64
	var mark memtrace.Mark
	for t < q {
		n := len(buf)
		if step > 0 {
			if need := int((q - t + step - 1) / step); need < n {
				n = need
			}
		}
		gen.Save(&mark)
		blk := buf[:n]
		gen.FillBlock(blk)
		used := 0
		for _, addr := range blk {
			t += step
			if !c.Access(ownerIntervening, addr) {
				t += mc.LineFill
			}
			used++
			if t >= q {
				break
			}
		}
		if used < n {
			gen.Restore(&mark)
			gen.FillBlock(blk[:used])
		}
	}
}

// Penalties holds the derived per-switch cache penalties for one measured
// application.
type Penalties struct {
	Measured string
	Q        simtime.Duration
	// PNA is the no-affinity penalty per switch.
	PNA simtime.Duration
	// PA maps intervening application name to the affinity penalty per
	// switch when that application runs in between.
	PA map[string]simtime.Duration
	// Stationary, Migrating and MultiprogRT retain the underlying runs for
	// reporting.
	Stationary RunResult
	Migrating  RunResult
	Multi      map[string]RunResult
}

// MeasurePenalties runs the full Section-4 protocol for one measured
// application against a set of intervening applications at one Q, and
// derives P^NA and P^A.
func MeasurePenalties(mc machine.Config, measured memtrace.Pattern, intervening []memtrace.Pattern, opts Options) (Penalties, error) {
	if err := mc.Validate(); err != nil {
		return Penalties{}, err
	}
	if err := opts.Validate(); err != nil {
		return Penalties{}, err
	}
	ms := measuredStream(measured, opts)
	ivs := make([]*Stream, len(intervening))
	for i, iv := range intervening {
		ivs[i] = interveningStream(iv, opts)
	}
	return measurePenalties(mc, measured.Name, ms, intervening, ivs, opts)
}

// measurePenalties is MeasurePenalties over precomputed streams. Every
// regime replays the same measured references into the same cache until
// the first switch point; only the action taken there differs. So the
// prefix is replayed once, the cache is cloned there for Migrating and for
// each Multiprog run, and Stationary continues on the original.
func measurePenalties(mc machine.Config, name string, measured *Stream, intervening []memtrace.Pattern, ivStreams []*Stream, opts Options) (Penalties, error) {
	if err := mc.Validate(); err != nil {
		return Penalties{}, err
	}
	if err := opts.Validate(); err != nil {
		return Penalties{}, err
	}
	st, err := newRunState(mc, measured, opts.Q)
	if err != nil {
		return Penalties{}, err
	}
	paused := st.replay(Stationary, true)
	finish := func(run *runState, regime Regime) RunResult {
		if paused {
			run.act(regime)
			run.replay(regime, false)
		}
		return run.result(regime)
	}
	p := Penalties{
		Measured:  name,
		Q:         opts.Q,
		PA:        make(map[string]simtime.Duration, len(intervening)),
		Migrating: finish(st.fork(nil), Migrating),
		Multi:     make(map[string]RunResult, len(intervening)),
	}
	for i, iv := range intervening {
		p.Multi[iv.Name] = finish(st.fork(ivStreams[i]), Multiprog)
	}
	// Last: Stationary continues on the state the others forked from.
	p.Stationary = finish(st, Stationary)
	p.PNA = perSwitch(p.Migrating.ResponseTime-p.Stationary.ResponseTime, p.Migrating.Switches)
	for _, iv := range intervening {
		multi := p.Multi[iv.Name]
		p.PA[iv.Name] = perSwitch(multi.ResponseTime-p.Stationary.ResponseTime, multi.Switches)
	}
	return p, nil
}

func perSwitch(delta simtime.Duration, switches int) simtime.Duration {
	if switches <= 0 {
		return 0
	}
	d := delta / simtime.Duration(switches)
	if d < 0 {
		// Sampling noise can push a tiny negative; clamp, a penalty is
		// non-negative by definition.
		return 0
	}
	return d
}

// MeasureCell runs the Section-4 protocol for a single (Q, measured
// application) cell of Table 1 in isolation. It reproduces the matching
// BuildTable1Ctx cell bitwise: the measured and intervening streams
// depend only on (pattern, budget, seed) — Q never enters stream
// construction — so the streams it takes from the shared memo (built on
// first use by whichever cell needs them, or per call when too long to
// retain) replay exactly the references the shared-stream table build
// replays. The cell caches of the sharded
// campaign path rely on this identity.
func MeasureCell(mc machine.Config, patterns []memtrace.Pattern, measured int, q, budget simtime.Duration, seed uint64) (Penalties, error) {
	if measured < 0 || measured >= len(patterns) {
		return Penalties{}, fmt.Errorf("measure: measured index %d out of range [0,%d)", measured, len(patterns))
	}
	if err := mc.Validate(); err != nil {
		return Penalties{}, err
	}
	opts := Options{Q: q, Budget: budget, Seed: seed}
	if err := opts.Validate(); err != nil {
		return Penalties{}, err
	}
	streamOpts := Options{Q: budget, Budget: budget, Seed: seed}
	ms := measuredStream(patterns[measured], streamOpts)
	ivs := make([]*Stream, len(patterns))
	for i, p := range patterns {
		ivs[i] = interveningStream(p, streamOpts)
	}
	return measurePenalties(mc, patterns[measured].Name, ms, patterns, ivs, opts)
}

// Table1 reproduces the paper's Table 1: for every measured application,
// every intervening application, and every Q, the penalties P^NA and P^A.
type Table1 struct {
	Qs   []simtime.Duration
	Apps []string
	// Cells[q][measured] holds the penalties for that combination.
	Cells map[simtime.Duration]map[string]Penalties
}

// DefaultQs returns the paper's three rescheduling intervals: 25, 100 and
// 400 ms.
func DefaultQs() []simtime.Duration {
	return []simtime.Duration{
		25 * simtime.Millisecond,
		100 * simtime.Millisecond,
		400 * simtime.Millisecond,
	}
}

// BuildTable1 runs the complete protocol over all application pairs and Qs.
// budget is the per-run compute budget; seed fixes the random streams.
func BuildTable1(mc machine.Config, patterns []memtrace.Pattern, qs []simtime.Duration, budget simtime.Duration, seed uint64) (Table1, error) {
	return BuildTable1Ctx(context.Background(), mc, patterns, qs, budget, seed, 0)
}

// BuildTable1Ctx is BuildTable1 with cancellation and a worker bound,
// fanning the (Q, measured application) cells out over workers goroutines
// (zero means runtime.GOMAXPROCS(0), one is sequential). Every cell is an
// independent set of single-processor runs with its own caches and
// generators seeded only by (seed, Q, pattern), so the table is identical
// for every worker count.
func BuildTable1Ctx(ctx context.Context, mc machine.Config, patterns []memtrace.Pattern, qs []simtime.Duration, budget simtime.Duration, seed uint64, workers int) (Table1, error) {
	t := Table1{
		Qs:    qs,
		Cells: make(map[simtime.Duration]map[string]Penalties),
	}
	for _, p := range patterns {
		t.Apps = append(t.Apps, p.Name)
	}
	// The streams depend only on (pattern, budget, seed), not on Q or the
	// regime, so each pattern's measured and intervening streams are built
	// once here and shared read-only by every cell.
	streamOpts := Options{Q: budget, Budget: budget, Seed: seed}
	measStreams := make([]*Stream, len(patterns))
	ivStreams := make([]*Stream, len(patterns))
	err := parallel.ForEach(ctx, workers, 2*len(patterns), func(ctx context.Context, idx int) error {
		if idx < len(patterns) {
			measStreams[idx] = measuredStream(patterns[idx], streamOpts)
		} else {
			ivStreams[idx-len(patterns)] = interveningStream(patterns[idx-len(patterns)], streamOpts)
		}
		return nil
	})
	if err != nil {
		return Table1{}, err
	}
	// One slot per (q, measured) cell; idx = qi*len(patterns) + pi.
	cells := make([]Penalties, len(qs)*len(patterns))
	err = parallel.ForEach(ctx, workers, len(cells), func(ctx context.Context, idx int) error {
		q := qs[idx/len(patterns)]
		p := patterns[idx%len(patterns)]
		pen, err := measurePenalties(mc, p.Name, measStreams[idx%len(patterns)], patterns, ivStreams,
			Options{Q: q, Budget: budget, Seed: seed})
		if err != nil {
			return err
		}
		cells[idx] = pen
		return nil
	})
	if err != nil {
		return Table1{}, err
	}
	for qi, q := range qs {
		t.Cells[q] = make(map[string]Penalties)
		for pi, p := range patterns {
			t.Cells[q][p.Name] = cells[qi*len(patterns)+pi]
		}
	}
	return t, nil
}
