package measure

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/memtrace"
	"repro/internal/simtime"
)

// fast returns options that keep unit-test runs quick: a short budget with
// plenty of switch points.
func fast(q simtime.Duration) Options {
	return Options{Q: q, Budget: 3 * simtime.Second, Seed: 1}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Q: 0, Budget: simtime.Second}).Validate(); err == nil {
		t.Error("zero Q accepted")
	}
	if err := (Options{Q: simtime.Second, Budget: simtime.Millisecond}).Validate(); err == nil {
		t.Error("budget < Q accepted")
	}
	if err := fast(25 * simtime.Millisecond).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestRegimeString(t *testing.T) {
	if Stationary.String() != "stationary" || Migrating.String() != "migrating" ||
		Multiprog.String() != "multiprog" {
		t.Error("regime names wrong")
	}
	if Regime(9).String() == "" {
		t.Error("unknown regime has empty name")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	mc := machine.Symmetry()
	mc.Processors = 0
	if _, err := Run(mc, memtrace.MVAPattern(), memtrace.Pattern{}, Stationary, fast(25*simtime.Millisecond)); err == nil {
		t.Error("bad machine accepted")
	}
	if _, err := Run(machine.Symmetry(), memtrace.MVAPattern(), memtrace.Pattern{}, Stationary, Options{}); err == nil {
		t.Error("bad options accepted")
	}
}

// TestBuildTable1RejectsBadInputs: the whole-grid driver must refuse a
// budget shorter than its largest Q, as every single-cell entry point does,
// rather than tabulate runs in which that Q never fires.
func TestBuildTable1RejectsBadInputs(t *testing.T) {
	if _, err := BuildTable1(machine.Symmetry(), memtrace.Patterns(), DefaultQs(), 200*simtime.Millisecond, 1); err == nil {
		t.Error("budget 200ms below Q 400ms accepted")
	}
	mc := machine.Symmetry()
	mc.Processors = 0
	if _, err := BuildTable1(mc, memtrace.Patterns(), DefaultQs(), simtime.Second, 1); err == nil {
		t.Error("bad machine accepted")
	}
}

func TestStationaryBaselineProperties(t *testing.T) {
	mc := machine.Symmetry()
	opts := fast(25 * simtime.Millisecond)
	res, err := Run(mc, memtrace.MatrixPattern(), memtrace.Pattern{}, Stationary, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponseTime < opts.Budget {
		t.Errorf("response time %v shorter than pure compute budget %v", res.ResponseTime, opts.Budget)
	}
	if res.Switches == 0 {
		t.Error("no switches occurred")
	}
	if res.Misses == 0 || res.Misses >= res.Accesses {
		t.Errorf("implausible miss count %d of %d", res.Misses, res.Accesses)
	}
}

func TestMigratingCostsMoreThanStationary(t *testing.T) {
	mc := machine.Symmetry()
	opts := fast(25 * simtime.Millisecond)
	for _, p := range memtrace.Patterns() {
		stat, err := Run(mc, p, memtrace.Pattern{}, Stationary, opts)
		if err != nil {
			t.Fatal(err)
		}
		mig, err := Run(mc, p, memtrace.Pattern{}, Migrating, opts)
		if err != nil {
			t.Fatal(err)
		}
		if mig.ResponseTime <= stat.ResponseTime {
			t.Errorf("%s: migrating RT %v not greater than stationary %v",
				p.Name, mig.ResponseTime, stat.ResponseTime)
		}
		if mig.Misses <= stat.Misses {
			t.Errorf("%s: migrating misses %d not greater than stationary %d",
				p.Name, mig.Misses, stat.Misses)
		}
	}
}

func TestMultiprogBetweenStationaryAndMigrating(t *testing.T) {
	// The affinity penalty must be positive but smaller than the
	// no-affinity penalty: an intervening task ejects only part of the
	// returning task's context.
	mc := machine.Symmetry()
	opts := fast(25 * simtime.Millisecond)
	pen, err := MeasurePenalties(mc, memtrace.MVAPattern(), []memtrace.Pattern{memtrace.MatrixPattern()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	pa := pen.PA["MATRIX"]
	if pa <= 0 {
		t.Fatalf("P^A = %v, want positive", pa)
	}
	if pa >= pen.PNA {
		t.Fatalf("P^A %v not less than P^NA %v", pa, pen.PNA)
	}
}

func TestPenaltiesGrowWithQ(t *testing.T) {
	// Paper: both penalties increase with Q, because longer quanta touch
	// (and let intervening tasks eject) more data.
	mc := machine.Symmetry()
	prevPNA := simtime.Duration(-1)
	for _, q := range []simtime.Duration{25 * simtime.Millisecond, 100 * simtime.Millisecond} {
		opts := Options{Q: q, Budget: 5 * simtime.Second, Seed: 1}
		pen, err := MeasurePenalties(mc, memtrace.MVAPattern(), nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if pen.PNA <= prevPNA {
			t.Errorf("P^NA at Q=%v is %v, not greater than %v at smaller Q", q, pen.PNA, prevPNA)
		}
		prevPNA = pen.PNA
	}
}

func TestPNAExceedsSwitchPathAtLargeQ(t *testing.T) {
	// The paper's headline Section-4 observation: the cache effect of a
	// reallocation can exceed the 750 µs kernel path length.
	mc := machine.Symmetry()
	opts := Options{Q: 100 * simtime.Millisecond, Budget: 5 * simtime.Second, Seed: 1}
	pen, err := MeasurePenalties(mc, memtrace.MVAPattern(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pen.PNA <= mc.SwitchPath {
		t.Errorf("P^NA %v does not exceed switch path %v", pen.PNA, mc.SwitchPath)
	}
}

func TestDeterminism(t *testing.T) {
	mc := machine.Symmetry()
	opts := fast(25 * simtime.Millisecond)
	a, err := Run(mc, memtrace.GravityPattern(), memtrace.MVAPattern(), Multiprog, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mc, memtrace.GravityPattern(), memtrace.MVAPattern(), Multiprog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical runs differ:\n%+v\n%+v", a, b)
	}
}

func TestPerSwitch(t *testing.T) {
	if got := perSwitch(1000, 10); got != 100 {
		t.Errorf("perSwitch = %v", got)
	}
	if got := perSwitch(1000, 0); got != 0 {
		t.Errorf("perSwitch with zero switches = %v", got)
	}
	if got := perSwitch(-50, 10); got != 0 {
		t.Errorf("negative delta not clamped: %v", got)
	}
}

func TestBuildTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table build is seconds-long")
	}
	mc := machine.Symmetry()
	qs := []simtime.Duration{25 * simtime.Millisecond, 100 * simtime.Millisecond}
	tbl, err := BuildTable1(mc, memtrace.Patterns(), qs, 4*simtime.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Apps) != 3 {
		t.Fatalf("apps = %v", tbl.Apps)
	}
	for _, q := range qs {
		for _, app := range tbl.Apps {
			pen, ok := tbl.Cells[q][app]
			if !ok {
				t.Fatalf("missing cell %v/%s", q, app)
			}
			if pen.PNA <= 0 {
				t.Errorf("%s at Q=%v: P^NA = %v, want positive", app, q, pen.PNA)
			}
			if len(pen.PA) != 3 {
				t.Errorf("%s at Q=%v: %d P^A entries, want 3", app, q, len(pen.PA))
			}
			for iv, pa := range pen.PA {
				if pa < 0 {
					t.Errorf("%s/%s: negative P^A %v", app, iv, pa)
				}
				if pa >= pen.PNA {
					t.Errorf("%s/%s at Q=%v: P^A %v >= P^NA %v", app, iv, q, pa, pen.PNA)
				}
			}
		}
	}
}

// TestMeasureCellMatchesBuildTable1 checks the single-cell entry point
// reproduces the corresponding BuildTable1 cell exactly — the contract
// the experiments layer's cell decomposition relies on.
func TestMeasureCellMatchesBuildTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement runs in -short mode")
	}
	mc := machine.Symmetry()
	pats := memtrace.Patterns()
	qs := []simtime.Duration{25 * simtime.Millisecond, 100 * simtime.Millisecond}
	budget := 500 * simtime.Millisecond
	tbl, err := BuildTable1(mc, pats, qs, budget, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		for pi, p := range pats {
			pen, err := MeasureCell(mc, pats, pi, q, budget, 7)
			if err != nil {
				t.Fatalf("%s at Q=%v: %v", p.Name, q, err)
			}
			if !reflect.DeepEqual(pen, tbl.Cells[q][p.Name]) {
				t.Errorf("%s at Q=%v: MeasureCell differs from BuildTable1 cell\ncell:  %+v\ntable: %+v",
					p.Name, q, pen, tbl.Cells[q][p.Name])
			}
		}
	}
	if _, err := MeasureCell(mc, pats, -1, qs[0], budget, 7); err == nil {
		t.Error("negative measured index accepted")
	}
	if _, err := MeasureCell(mc, pats, len(pats), qs[0], budget, 7); err == nil {
		t.Error("out-of-range measured index accepted")
	}
}
