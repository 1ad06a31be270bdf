package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/workload"
)

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := FastOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.Replications = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero replications accepted")
	}
	bad = DefaultOptions()
	bad.MeasureBudget = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero budget accepted")
	}
	bad = DefaultOptions()
	bad.AppScale = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestDefaultMachineIs16ProcSymmetry(t *testing.T) {
	o := DefaultOptions()
	if o.Machine.Processors != 16 {
		t.Errorf("processors = %d, want 16 (paper's experiment size)", o.Machine.Processors)
	}
	if o.Machine.Cache.SizeBytes != 64*1024 {
		t.Errorf("cache = %d, want Symmetry's 64KB", o.Machine.Cache.SizeBytes)
	}
}

func TestScaledApps(t *testing.T) {
	o := FastOptions()
	mix, _ := workload.MixByNumber(6)
	apps := o.apps(mix, 1)
	if len(apps) != 3 {
		t.Fatalf("apps = %d", len(apps))
	}
	full := DefaultOptions().apps(mix, 1)
	for i := range apps {
		if apps[i].Graph.NumThreads() >= full[i].Graph.NumThreads() {
			t.Errorf("%s: scaled app not smaller (%d vs %d threads)",
				apps[i].Name, apps[i].Graph.NumThreads(), full[i].Graph.NumThreads())
		}
	}
}

func TestCharacterize(t *testing.T) {
	chars := campaignResult[CharacterizeCampaignResult](t, context.Background(),
		"characterize", CampaignParams{Fast: true}).Apps
	if len(chars) != 3 {
		t.Fatalf("characterized %d apps", len(chars))
	}
	names := map[string]bool{}
	for _, c := range chars {
		names[c.Name] = true
		if c.ElapsedSec <= 0 || c.TotalWorkSec <= 0 {
			t.Errorf("%s: non-positive times", c.Name)
		}
		if c.AvgDemand <= 0 || c.AvgDemand > 16 {
			t.Errorf("%s: avg demand %v out of range", c.Name, c.AvgDemand)
		}
		sum := 0.0
		for _, p := range c.ProfilePct {
			sum += p
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: profile sums to %v%%", c.Name, sum)
		}
	}
	for _, want := range []string{"MVA", "MATRIX", "GRAVITY"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
	// Report renderers produce non-empty output.
	var b strings.Builder
	tab := CharacterTable(chars)
	if err := tab.Write(&b); err != nil {
		t.Fatal(err)
	}
	prof := ProfileTable(chars)
	if err := prof.Write(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Error("empty reports")
	}
}

func TestTable1SmallBudget(t *testing.T) {
	opts := FastOptions()
	t1, err := RunTable1(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Apps) != 3 || len(t1.Qs) != 3 {
		t.Fatalf("table dims: %d apps, %d qs", len(t1.Apps), len(t1.Qs))
	}
	tabs := Table1Report(t1)
	if len(tabs) != 3 {
		t.Fatalf("reports = %d", len(tabs))
	}
	var b strings.Builder
	for _, tab := range tabs {
		if err := tab.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(b.String(), "P^NA") {
		t.Error("report missing P^NA column")
	}
}

func TestPenaltyFor(t *testing.T) {
	opts := FastOptions()
	t1, err := RunTable1(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	pa, pna := PenaltyFor(t1, "MVA", []string{"MATRIX"}, 400*simtime.Millisecond)
	if pna <= 0 || pa <= 0 {
		t.Fatalf("penalties not positive: pa=%v pna=%v", pa, pna)
	}
	if pa >= pna {
		t.Errorf("P^A %v >= P^NA %v", pa, pna)
	}
	// Nearest-Q selection picks larger penalties for larger intervals.
	_, pnaSmall := PenaltyFor(t1, "MVA", nil, 25*simtime.Millisecond)
	if pnaSmall >= pna {
		t.Errorf("P^NA at Q=25 (%v) not below Q=400 (%v)", pnaSmall, pna)
	}
	// Unknown app yields zeros, empty table yields zeros.
	if pa, pna := PenaltyFor(t1, "NOPE", nil, 0); pa != 0 || pna != 0 {
		t.Error("unknown app gave penalties")
	}
}

// The big one: the end-to-end pipeline at test scale, checking the paper's
// qualitative conclusions hold.
func TestPipelineQualitative(t *testing.T) {
	opts := FastOptions()
	policies := []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri"}
	cr, err := RunCompare(context.Background(), opts, 0, policies)
	if err != nil {
		t.Fatal(err)
	}
	// The conclusions below are checked on mixes #4 and #5.
	mixes := []workload.Mix{cr.Mixes[3], cr.Mixes[4]}

	// Paper conclusion 1: dynamic policies beat (or at worst match)
	// Equipartition on mean response time.
	for _, mix := range mixes {
		for _, pol := range []string{"Dynamic", "Dyn-Aff"} {
			rel, err := cr.Relative(mix.Number, pol, "Equipartition")
			if err != nil {
				t.Fatal(err)
			}
			mean := 0.0
			for _, r := range rel {
				mean += r
			}
			mean /= float64(len(rel))
			if mean > 1.02 {
				t.Errorf("mix #%d %s mean relative RT %.3f > 1", mix.Number, pol, mean)
			}
		}
	}

	// Paper conclusion 2: the dynamic variants are nearly identical today.
	relDyn, _ := cr.Relative(5, "Dynamic", "Equipartition")
	relAff, _ := cr.Relative(5, "Dyn-Aff", "Equipartition")
	for i := range relDyn {
		diff := relDyn[i] - relAff[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.1 {
			t.Errorf("job %d: Dynamic %.3f vs Dyn-Aff %.3f differ by more than 10%%",
				i, relDyn[i], relAff[i])
		}
	}

	// Reports render.
	var b strings.Builder
	fig5, err := cr.Figure5Report([]string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fig5.Write(&b); err != nil {
		t.Fatal(err)
	}
	t3, err := cr.Table3Report(5, []string{"Dynamic", "Dyn-Aff"})
	if err != nil {
		t.Fatal(err)
	}
	if err := t3.Write(&b); err != nil {
		t.Fatal(err)
	}
	t4, err := cr.Table4Report([]int{4}, "Dyn-Aff", "Dyn-Aff-NoPri")
	if err != nil {
		t.Fatal(err)
	}
	if err := t4.Write(&b); err != nil {
		t.Fatal(err)
	}

	// Future extrapolation end to end.
	t1, err := RunTable1(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	scen, err := FutureScenarios(cr, t1)
	if err != nil {
		t.Fatal(err)
	}
	key := ScenarioKey{Mix: 5, App: "GRAVITY"}
	sc, ok := scen[key]
	if !ok {
		t.Fatalf("no scenario %v; have %v", key, len(scen))
	}
	// Paper conclusion 3: Dynamic's relative RT rises with the
	// speed×cache product.
	ys, err := sc.SweepProduct("Dynamic", []float64{1, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if ys[1] <= ys[0] {
		t.Errorf("Dynamic relative RT did not rise: %v", ys)
	}
	charts, err := FutureCharts(cr, scen, []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(charts) != len(cr.Mixes) {
		t.Fatalf("charts = %d, want %d", len(charts), len(cr.Mixes))
	}
	for _, ch := range charts {
		if err := ch.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	opts := FastOptions()
	ctx := context.Background()
	// The compare cell's engine validates its grid.
	if _, err := ComparePoliciesCtx(ctx, opts, nil, []string{"Dynamic"}); err == nil {
		t.Error("no mixes accepted")
	}
	if _, err := ComparePoliciesCtx(ctx, opts, workload.Mixes()[:1], nil); err == nil {
		t.Error("no policies accepted")
	}
	if _, err := ComparePoliciesCtx(ctx, opts, workload.Mixes()[:1], []string{"bogus"}); err == nil {
		t.Error("bogus policy accepted")
	}
	mix := workload.Mix{Number: 9}
	if _, err := ComparePoliciesCtx(ctx, opts, []workload.Mix{mix}, []string{"Dynamic"}); err == nil {
		t.Error("empty mix accepted")
	}
	// So does the campaign the exhibits run.
	if _, err := RunCompare(ctx, opts, 1, []string{"bogus"}); err == nil {
		t.Error("campaign accepted a bogus policy")
	}
	if _, err := RunCompare(ctx, opts, 9, []string{"Dynamic"}); err == nil {
		t.Error("campaign accepted mix #9")
	}
	bad := opts
	bad.Replications = 0
	if _, err := RunCompare(ctx, bad, 1, []string{"Dynamic"}); err == nil {
		t.Error("campaign accepted zero replications")
	}
}

func TestRelativeErrors(t *testing.T) {
	opts := FastOptions()
	cr, err := RunCompare(context.Background(), opts, 1, []string{"Equipartition", "Dynamic"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Relative(9, "Dynamic", "Equipartition"); err == nil {
		t.Error("missing mix accepted")
	}
	if _, err := cr.Relative(1, "bogus", "Equipartition"); err == nil {
		t.Error("missing policy accepted")
	}
	if _, err := cr.Relative(1, "Dynamic", "bogus"); err == nil {
		t.Error("missing baseline accepted")
	}
	if _, err := cr.Table3Report(9, nil); err == nil {
		t.Error("Table3 for missing mix accepted")
	}
	if _, err := cr.Table4Report([]int{9}, "Dynamic", "Equipartition"); err == nil {
		t.Error("Table4 for missing mix accepted")
	}
}

func TestFigureApp(t *testing.T) {
	cases := map[int]string{1: "MVA", 2: "MATRIX", 3: "GRAVITY", 4: "GRAVITY", 5: "GRAVITY", 6: "GRAVITY"}
	for _, m := range workload.Mixes() {
		if got := FigureApp(m); got != cases[m.Number] {
			t.Errorf("FigureApp(#%d) = %s, want %s", m.Number, got, cases[m.Number])
		}
	}
}
