package cachemodel

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/memtrace"
	"repro/internal/simtime"
)

func symCfg() cache.Config { return cache.SymmetryConfig() }

func TestNewValidation(t *testing.T) {
	if _, err := NewFootprint(0, 4096); err == nil {
		t.Error("zero procs accepted (footprint)")
	}
	if _, err := NewExact(0, symCfg(), 1); err == nil {
		t.Error("zero procs accepted (exact)")
	}
	if _, err := NewExact(2, cache.Config{}, 1); err == nil {
		t.Error("bad cache config accepted")
	}
	if _, err := New(Kind(99), 2, symCfg(), 1); err == nil {
		t.Error("unknown kind accepted")
	}
}

// An unknown-kind error must name the valid kinds: the message reaches CLI
// users via config validation, and a bare integer gives them nothing to fix.
func TestNewUnknownKindNamesValid(t *testing.T) {
	_, err := New(Kind(99), 2, symCfg(), 1)
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, want := range []string{"footprint", "exact", "exact-naive", "99"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindFootprint.String() != "footprint" || KindExact.String() != "exact" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestNewDispatch(t *testing.T) {
	for _, k := range []Kind{KindFootprint, KindExact} {
		m, err := New(k, 2, symCfg(), 1)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if m.Name() != k.String() {
			t.Errorf("Name = %q for kind %v", m.Name(), k)
		}
	}
}

// Shared behavioural contract for both models.
func testModelContract(t *testing.T, m Model) {
	t.Helper()
	pat := memtrace.MVAPattern()
	const proc, task = 0, 1
	w := 200 * simtime.Millisecond

	if got := m.Resident(proc, task); got != 0 {
		t.Fatalf("initial residency = %v", got)
	}
	// Plan must not change state: two identical plans agree, and
	// residency is untouched.
	p1 := m.Plan(proc, task, &pat, 0, w, 0)
	p2 := m.Plan(proc, task, &pat, 0, w, 0)
	if p1 != p2 {
		t.Fatalf("Plan is not repeatable: %v vs %v", p1, p2)
	}
	if p1 <= 0 {
		t.Fatalf("cold plan = %v, want positive", p1)
	}
	if got := m.Resident(proc, task); got != 0 {
		t.Fatalf("Plan changed residency to %v", got)
	}
	// Full-segment commit equals the plan and installs lines.
	c1 := m.Commit(proc, task, &pat, 0, w, 0)
	if math.Abs(c1-p1) > 1e-9 {
		t.Fatalf("Commit %v != Plan %v for identical interval", c1, p1)
	}
	if got := m.Resident(proc, task); got <= 0 {
		t.Fatalf("residency after commit = %v", got)
	}
	// A second, warm interval misses less.
	p3 := m.Plan(proc, task, &pat, w, w, m.Resident(proc, task))
	if p3 >= p1 {
		t.Fatalf("warm plan %v not below cold plan %v", p3, p1)
	}
	// Zero-length intervals are free.
	if got := m.Plan(proc, task, &pat, 0, 0, 0); got != 0 {
		t.Fatalf("zero-length plan = %v", got)
	}
	if got := m.Commit(proc, task, &pat, 0, 0, 0); got != 0 {
		t.Fatalf("zero-length commit = %v", got)
	}
}

func TestFootprintContract(t *testing.T) {
	m, err := NewFootprint(2, symCfg().Lines())
	if err != nil {
		t.Fatal(err)
	}
	testModelContract(t, m)
}

func TestExactContract(t *testing.T) {
	m, err := NewExact(2, symCfg(), 7)
	if err != nil {
		t.Fatal(err)
	}
	testModelContract(t, m)
}

func TestExactIntervention(t *testing.T) {
	// An intervening task on the same processor raises the original
	// task's reload misses — the P^A effect — under the exact model.
	m, _ := NewExact(1, symCfg(), 3)
	mva := memtrace.MVAPattern()
	mat := memtrace.MatrixPattern()
	const proc = 0
	warm := simtime.Second
	q := 200 * simtime.Millisecond

	m.Commit(proc, 1, &mva, 0, warm, 0)
	baseline := m.Plan(proc, 1, &mva, warm, q, 0)
	m.Commit(proc, 2, &mat, 0, q, 0) // intervening task pollutes the cache
	disturbed := m.Plan(proc, 1, &mva, warm, q, 0)
	if disturbed <= baseline {
		t.Errorf("intervening task did not raise reload misses: %v vs %v", disturbed, baseline)
	}
}

func TestExactProcessorsIndependent(t *testing.T) {
	m, _ := NewExact(2, symCfg(), 3)
	pat := memtrace.GravityPattern()
	m.Commit(0, 1, &pat, 0, 500*simtime.Millisecond, 0)
	if got := m.Resident(1, 1); got != 0 {
		t.Errorf("running on proc 0 left %v lines on proc 1", got)
	}
	if got := m.Resident(0, 1); got <= 0 {
		t.Errorf("no residency on the processor that ran: %v", got)
	}
}

func TestExactDeterministicStreams(t *testing.T) {
	a, _ := NewExact(1, symCfg(), 9)
	b, _ := NewExact(1, symCfg(), 9)
	pat := memtrace.MatrixPattern()
	for i := 0; i < 5; i++ {
		ca := a.Commit(0, 3, &pat, 0, 100*simtime.Millisecond, 0)
		cb := b.Commit(0, 3, &pat, 0, 100*simtime.Millisecond, 0)
		if ca != cb {
			t.Fatalf("same-seed exact models diverged at segment %d", i)
		}
	}
}

// The calibration link: for a cold long segment the footprint plan should
// be within a modest factor of the exact plan.
func TestModelsAgreeOnColdSegment(t *testing.T) {
	fpm, _ := NewFootprint(1, symCfg().Lines())
	exm, _ := NewExact(1, symCfg(), 5)
	for _, pat := range memtrace.Patterns() {
		w := 300 * simtime.Millisecond
		fp := fpm.Plan(0, 1, &pat, 0, w, 0)
		ex := exm.Plan(0, 1, &pat, 0, w, 0)
		if ex == 0 {
			t.Fatalf("%s: exact plan zero", pat.Name)
		}
		ratio := fp / ex
		if ratio < 0.6 || ratio > 1.7 {
			t.Errorf("%s: cold plans disagree: footprint %v vs exact %v (ratio %.2f)",
				pat.Name, fp, ex, ratio)
		}
	}
}

func TestInvalidateShared(t *testing.T) {
	for _, k := range []Kind{KindFootprint, KindExact} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			m, err := New(k, 3, symCfg(), 1)
			if err != nil {
				t.Fatal(err)
			}
			pat := memtrace.MVAPattern()
			// Tasks 1 and 2 build footprints on procs 0 and 1.
			m.Commit(0, 1, &pat, 0, 500*simtime.Millisecond, 0)
			m.Commit(1, 2, &pat, 0, 500*simtime.Millisecond, 0)
			r1, r2 := m.Resident(0, 1), m.Resident(1, 2)
			// Task 1 (on proc 0) writes 100 shared lines in 10 ms: its
			// sibling task 2's copies on proc 1 shrink; task 1's own lines
			// do not.
			w := 10 * simtime.Millisecond
			shared := 100 / pat.TouchRate(w)
			got := m.InvalidateShared(0, 1, &pat, 0, w, shared)
			if got <= 0 {
				t.Fatalf("no lines invalidated")
			}
			if m.Resident(1, 2) >= r2 {
				t.Errorf("sibling residency did not shrink: %v -> %v", r2, m.Resident(1, 2))
			}
			if m.Resident(0, 1) != r1 {
				t.Errorf("writer's own residency changed: %v -> %v", r1, m.Resident(0, 1))
			}
			// A writer whose job has no other task with lines anywhere
			// invalidates nothing.
			if got := m.InvalidateShared(0, TaskID(1, 0), &pat, 0, w, shared); got != 0 {
				t.Errorf("phantom invalidation = %v", got)
			}
			if m.Resident(1, 2) == 0 || m.Resident(0, 1) != r1 {
				t.Errorf("other job's write changed residency")
			}
			// Less than half a line written is no traffic at all.
			before := m.Stats()
			if got := m.InvalidateShared(0, 1, &pat, 0, w, 0.1/pat.TouchRate(w)); got != 0 {
				t.Errorf("sub-line write invalidated %v", got)
			}
			if m.Stats() != before {
				t.Errorf("sub-line write counted: %+v -> %+v", before, m.Stats())
			}
		})
	}
}

func TestModelResetEquivalentToFresh(t *testing.T) {
	pat := memtrace.MVAPattern()
	for _, kind := range []Kind{KindFootprint, KindExact} {
		used, err := New(kind, 2, cache.SymmetryConfig(), 5)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the model, then reset.
		used.Commit(0, 1, &pat, 0, 50*simtime.Millisecond, 0)
		used.Commit(1, 2, &pat, 0, 30*simtime.Millisecond, 0)
		used.Reset()
		fresh, err := New(kind, 2, cache.SymmetryConfig(), 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Model{used, fresh} {
			m.Commit(0, 1, &pat, 0, 40*simtime.Millisecond, 0)
		}
		if got, want := used.Resident(0, 1), fresh.Resident(0, 1); got != want {
			t.Errorf("%s: reset model residency %v, fresh %v", used.Name(), got, want)
		}
		if got := used.Resident(1, 2); got != 0 {
			t.Errorf("%s: residency survived Reset: %v", used.Name(), got)
		}
	}
}
