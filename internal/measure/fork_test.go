package measure

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memtrace"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// oracleRun is an independent reference for one regime run alone: the
// Section-4 loop written out plainly, drawing every reference from fresh
// generators one Next at a time, with no Stream, cursor, run state or fork.
// The measured program makes n references.
func oracleRun(t *testing.T, mc machine.Config, measured memtrace.Pattern, n int, intervening memtrace.Pattern, regime Regime, opts Options) RunResult {
	t.Helper()
	c, err := cache.New(mc.Cache)
	if err != nil {
		t.Fatal(err)
	}
	mg := memtrace.NewGenerator(measured, 0, opts.Seed)
	var ig *memtrace.Generator
	if regime == Multiprog {
		ig = memtrace.NewGenerator(intervening, interveningBase, opts.Seed^0x5bd1e995)
	}
	res := RunResult{Regime: regime, Accesses: uint64(n)}
	next := opts.Q
	for k := 0; k < n; k++ {
		addr, think := mg.Next()
		res.ResponseTime += mc.Compute(think)
		if !c.Access(ownerMeasured, addr) {
			res.Misses++
			res.ResponseTime += mc.LineFill
		}
		if res.ResponseTime < next {
			continue
		}
		res.Switches++
		res.ResponseTime += mc.SwitchPath
		switch regime {
		case Migrating:
			c.Flush()
		case Multiprog:
			for used := simtime.Duration(0); used < opts.Q; {
				addr, think := ig.Next()
				used += mc.Compute(think)
				if !c.Access(ownerIntervening, addr) {
					used += mc.LineFill
				}
			}
		}
		next = res.ResponseTime + opts.Q
	}
	return res
}

// checkForkMatchesAlone requires the forked measurePenalties to report, for
// every regime, exactly the RunResult of that regime run alone from an
// empty cache: both through runStreams over the same streams and through
// oracleRun. runStreams shares replay and act with the fork, so oracleRun
// is the reference that does not; the golden table1 hash in the root
// package's TestGoldenResultBytes pins the same results end to end.
func checkForkMatchesAlone(t *testing.T, label string, mc machine.Config, mpat memtrace.Pattern, measured *Stream, ivs []memtrace.Pattern, ivStreams []*Stream, opts Options) Penalties {
	t.Helper()
	p, err := measurePenalties(mc, "m", measured, ivs, ivStreams, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	check := func(what string, got RunResult, iv memtrace.Pattern, ivStream *Stream, r Regime) {
		t.Helper()
		alone, err := runStreams(mc, measured, ivStream, r, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got != alone {
			t.Errorf("%s: %s forked %+v, alone %+v", label, what, got, alone)
		}
		if want := oracleRun(t, mc, mpat, len(measured.addrs), iv, r, opts); got != want {
			t.Errorf("%s: %s forked %+v, oracle %+v", label, what, got, want)
		}
	}
	check("stationary", p.Stationary, memtrace.Pattern{}, nil, Stationary)
	check("migrating", p.Migrating, memtrace.Pattern{}, nil, Migrating)
	for i, iv := range ivs {
		check("multiprog vs "+iv.Name, p.Multi[iv.Name], iv, ivStreams[i], Multiprog)
	}
	return p
}

// TestForkMatchesRegimesAlone is the differential test of the fork at the
// first switch point over seeded random (pattern, Q, budget, seed, speed).
func TestForkMatchesRegimesAlone(t *testing.T) {
	pats := memtrace.Patterns()
	rng := xrand.New(20260601, 0)
	for k := 0; k < 12; k++ {
		mc := machine.Symmetry()
		mc.Processors = 1
		if rng.Intn(2) == 1 {
			mc.Speed = 2
		}
		pat := pats[rng.Intn(len(pats))]
		budget := simtime.Duration(20+rng.Intn(280)) * simtime.Millisecond
		q := simtime.Duration(1+rng.Int63n(int64(budget/simtime.Millisecond))) * simtime.Millisecond
		seed := rng.Uint64()
		n := memtrace.NewGenerator(pat, 0, seed).RefsFor(budget)
		measured := NewStream(pat, 0, seed, n)
		ivStreams := make([]*Stream, len(pats))
		for i, iv := range pats {
			ivStreams[i] = NewStream(iv, interveningBase, seed^0x5bd1e995, n)
		}
		label := fmt.Sprintf("case %d (%s, Q=%v, budget=%v, speed=%g)", k, pat.Name, q, budget, mc.Speed)
		checkForkMatchesAlone(t, label, mc, pat, measured, pats, ivStreams, Options{Q: q, Budget: budget, Seed: seed})
	}
}

// forkFixture is one measured stream and its intervening streams.
func forkFixture(budget simtime.Duration, seed uint64) (machine.Config, *Stream, []memtrace.Pattern, []*Stream) {
	mc := machine.Symmetry()
	mc.Processors = 1
	pats := memtrace.Patterns()
	n := memtrace.NewGenerator(pats[0], 0, seed).RefsFor(budget)
	measured := NewStream(pats[0], 0, seed, n)
	ivStreams := make([]*Stream, len(pats))
	for i, iv := range pats {
		ivStreams[i] = NewStream(iv, interveningBase, seed^0x5bd1e995, n)
	}
	return mc, measured, pats, ivStreams
}

// totalOwnTime is the measured program's own time over the whole stream
// with no switch point.
func totalOwnTime(t *testing.T, mc machine.Config, measured *Stream) simtime.Duration {
	t.Helper()
	never := simtime.Duration(1) << 62
	res, err := runStreams(mc, measured, nil, Stationary, Options{Q: never, Budget: never})
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 0 {
		t.Fatalf("switch fired at Q=%v", never)
	}
	return res.ResponseTime
}

func TestForkWithoutSwitch(t *testing.T) {
	mc, measured, pats, ivStreams := forkFixture(50*simtime.Millisecond, 3)
	q := totalOwnTime(t, mc, measured) + 1
	p := checkForkMatchesAlone(t, "no switch", mc, pats[0], measured, pats, ivStreams, Options{Q: q, Budget: q, Seed: 3})
	if p.Stationary.Switches != 0 {
		t.Errorf("switches = %d, want 0", p.Stationary.Switches)
	}
}

func TestForkAtLastReference(t *testing.T) {
	mc, measured, pats, ivStreams := forkFixture(50*simtime.Millisecond, 4)
	// Own time grows with every reference, so it first reaches its total
	// at the last one.
	q := totalOwnTime(t, mc, measured)
	p := checkForkMatchesAlone(t, "last reference", mc, pats[0], measured, pats, ivStreams, Options{Q: q, Budget: q, Seed: 4})
	if p.Stationary.Switches != 1 {
		t.Errorf("switches = %d, want 1", p.Stationary.Switches)
	}
}

// TestForkIntoTailGenerator forks onto hand-built intervening streams far
// shorter than one quantum's consumption, so every multiprogrammed
// continuation runs on the tail generator; the result must also equal the
// full-length streams'.
func TestForkIntoTailGenerator(t *testing.T) {
	const seed = 5
	budget := 100 * simtime.Millisecond
	mc, measured, pats, full := forkFixture(budget, seed)
	short := make([]*Stream, len(pats))
	for i, iv := range pats {
		short[i] = NewStream(iv, interveningBase, seed^0x5bd1e995, 10)
	}
	opts := Options{Q: 10 * simtime.Millisecond, Budget: budget, Seed: seed}
	got := checkForkMatchesAlone(t, "short intervening", mc, pats[0], measured, pats, short, opts)
	want, err := measurePenalties(mc, "m", measured, pats, full, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range pats {
		if got.Multi[iv.Name] != want.Multi[iv.Name] {
			t.Errorf("multiprog vs %s: short stream %+v, full stream %+v", iv.Name, got.Multi[iv.Name], want.Multi[iv.Name])
		}
	}
}
