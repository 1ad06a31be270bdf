package measure

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/memtrace"
	"repro/internal/simtime"
)

// sameStream requires s to be bitwise the stream NewStream builds for the
// key, tail generator included.
func sameStream(t *testing.T, s *Stream, pat memtrace.Pattern, base, seed uint64, n int) {
	t.Helper()
	fresh := NewStream(pat, base, seed, n)
	if !slices.Equal(s.addrs, fresh.addrs) || s.gap != fresh.gap {
		t.Fatalf("%s: memoized stream differs from NewStream", pat.Name)
	}
	a, b := make([]uint64, 64), make([]uint64, 64)
	s.tail.Clone().FillBlock(a)
	fresh.tail.Clone().FillBlock(b)
	if !slices.Equal(a, b) {
		t.Fatalf("%s: memoized tail differs from NewStream's", pat.Name)
	}
}

func TestStreamMemoSharesEqualKeys(t *testing.T) {
	sm := newStreamMemo(1 << 20)
	pat := memtrace.GravityPattern()
	s := sm.get(pat, interveningBase, 9, 5000)
	if again := sm.get(memtrace.GravityPattern(), interveningBase, 9, 5000); again != s {
		t.Error("equal keys returned different streams")
	}
	sameStream(t, s, pat, interveningBase, 9, 5000)
	for _, other := range []*Stream{
		sm.get(pat, 0, 9, 5000),
		sm.get(pat, interveningBase, 10, 5000),
		sm.get(pat, interveningBase, 9, 5001),
	} {
		if other == s {
			t.Error("different base, seed or length shared an entry")
		}
	}
}

func TestStreamMemoKeysWholePattern(t *testing.T) {
	sm := newStreamMemo(1 << 20)
	base := memtrace.MVAPattern()
	gap := base
	gap.Gap = base.Gap / 2
	comps := base
	comps.Components = slices.Clone(base.Components)
	comps.Components[1].Lines--
	perm := base
	perm.Components = slices.Clone(base.Components)
	perm.Components[2].Permuted = true
	phase := base
	phase.PhaseEvery = 500 * simtime.Millisecond
	seen := map[*Stream]string{}
	for _, c := range []struct {
		what string
		pat  memtrace.Pattern
	}{{"base", base}, {"Gap", gap}, {"Components", comps}, {"Permuted", perm}, {"PhaseEvery", phase}} {
		s := sm.get(c.pat, 0, 1, 2000)
		if prev, ok := seen[s]; ok {
			t.Errorf("MVA patterns differing in %s collided with %s", c.what, prev)
		}
		seen[s] = c.what
		sameStream(t, s, c.pat, 0, 1, 2000)
	}
	if len(sm.m) != len(seen) {
		t.Errorf("memo holds %d entries, want %d", len(sm.m), len(seen))
	}
}

func TestStreamMemoConcurrentCallersShareOneBuild(t *testing.T) {
	sm := newStreamMemo(1 << 20)
	pat := memtrace.MatrixPattern()
	const callers = 8
	got := make([]*Stream, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = sm.get(pat, 0, 7, 20000)
		}()
	}
	start.Done()
	done.Wait()
	for i, s := range got {
		if s != got[0] {
			t.Fatalf("caller %d got a separately built stream", i)
		}
	}
	if len(sm.m) != 1 {
		t.Errorf("memo holds %d entries, want 1", len(sm.m))
	}
	sameStream(t, got[0], pat, 0, 7, 20000)
}

func TestStreamMemoBoundedOldestFirst(t *testing.T) {
	const max = 192 << 10 // 24576 references; entries up to 4096
	sm := newStreamMemo(max)
	if sm.entryMax != max/campaignStreams {
		t.Fatalf("entryMax %d, want %d", sm.entryMax, max/campaignStreams)
	}
	pat := memtrace.MVAPattern()
	check := func() {
		t.Helper()
		sum := 0
		for _, e := range sm.m {
			sum += e.bytes
		}
		if sum != sm.retained || len(sm.order) != len(sm.m) {
			t.Fatalf("books out of step: retained %d, entries sum %d, %d ordered, %d mapped",
				sm.retained, sum, len(sm.order), len(sm.m))
		}
		if sm.retained > max {
			t.Fatalf("retained %d bytes over the %d cap", sm.retained, max)
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		sm.get(pat, 0, seed, 1000+int(seed)*150)
		check()
	}
	// Oldest first: the newest entries survive, the first is gone.
	if _, ok := sm.m[streamKey{pattern: patternKey(pat), seed: 20, n: 4000}]; !ok {
		t.Error("newest entry evicted")
	}
	if _, ok := sm.m[streamKey{pattern: patternKey(pat), seed: 1, n: 1150}]; ok {
		t.Error("oldest entry retained past the cap")
	}

	// A stream just within entryMax is retained; one reference more is
	// built for the call alone, so one campaign's streams cannot crowd
	// each other out.
	fits := sm.entryMax / 8
	sm.get(pat, 0, 98, fits)
	check()
	if _, ok := sm.m[streamKey{pattern: patternKey(pat), seed: 98, n: fits}]; !ok {
		t.Error("stream of entryMax bytes not retained")
	}
	before := len(sm.m)
	over := sm.get(pat, 0, 99, fits+1)
	check()
	if len(sm.m) != before {
		t.Error("stream over entryMax retained")
	}
	sameStream(t, over, pat, 0, 99, fits+1)
}

// TestStreamMemoHoldsFastCampaign: at the table1-cold budget (0.4 s) every
// stream of a campaign is retained and all six fit together; at the 4 s
// fast default none is retained.
func TestStreamMemoHoldsFastCampaign(t *testing.T) {
	for _, c := range []struct {
		budget simtime.Duration
		kept   int
	}{{400 * simtime.Millisecond, campaignStreams}, {4 * simtime.Second, 0}} {
		sm := newStreamMemo(streamMemoMax)
		for _, p := range memtrace.Patterns() {
			n := memtrace.NewGenerator(p, 0, 1).RefsFor(c.budget)
			sm.get(p, 0, 1, n)
			sm.get(p, interveningBase, 1^0x5bd1e995, n)
		}
		if len(sm.m) != c.kept {
			t.Errorf("budget %v: %d streams retained, want %d", c.budget, len(sm.m), c.kept)
		}
	}
}
