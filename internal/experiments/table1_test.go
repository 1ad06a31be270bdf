package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/measure"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// table1Partials runs every cell of the table1 plan for p, in order, and
// returns the plan, the decoded partials and each cell's stats.
func table1Partials(t *testing.T, p CampaignParams) (*CellPlan, []table1CellPartial, []obs.CampaignSnapshot) {
	t.Helper()
	plan, err := Cells("table1", p)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]table1CellPartial, len(plan.Cells))
	snaps := make([]obs.CampaignSnapshot, len(plan.Cells))
	for i := range plan.Cells {
		cs := obs.NewCampaignStats()
		res, err := plan.Cells[i].Run(obs.WithCollector(context.Background(), cs))
		if err != nil {
			t.Fatalf("cell %s: %v", plan.Cells[i].ID, err)
		}
		parts[i] = res.(table1CellPartial)
		snaps[i] = cs.Snapshot()
	}
	return plan, parts, snaps
}

// TestTable1PlanRejectsBadInputs: the table1 campaign must refuse a
// budget shorter than its largest Q, rather than tabulate runs in which
// that Q never fires, and the exhibits' entry point must refuse options
// the campaign cannot run.
func TestTable1PlanRejectsBadInputs(t *testing.T) {
	camp, _ := CampaignByKind("table1")
	_, err := camp.Run(context.Background(), CampaignParams{BudgetSec: 0.2})
	if err == nil || !strings.Contains(err.Error(), "shorter than one quantum") {
		t.Errorf("budget 200ms below Q 400ms: err = %v", err)
	}
	if _, err := Cells("table1", CampaignParams{Procs: -1}); err == nil {
		t.Error("negative processor count accepted")
	}
	opts := DefaultOptions()
	opts.Machine.Processors = 0
	if _, err := RunTable1(context.Background(), opts); err == nil {
		t.Error("bad machine accepted")
	}
	opts = DefaultOptions()
	opts.Machine.Cache.Ways = 4
	if _, err := RunTable1(context.Background(), opts); err == nil {
		t.Error("a machine the campaign would not run accepted")
	}
}

// TestTable1PlanShape checks the converted table's dimensions and the
// protocol's basic orderings in every cell: P^NA positive, one P^A per
// intervening application, each non-negative and below P^NA.
func TestTable1PlanShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table build is seconds-long")
	}
	opts := DefaultOptions()
	opts.MeasureBudget = 4 * simtime.Second
	tbl, err := RunTable1(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Apps) != 3 {
		t.Fatalf("apps = %v", tbl.Apps)
	}
	if !reflect.DeepEqual(tbl.Qs, measure.DefaultQs()) {
		t.Fatalf("qs = %v", tbl.Qs)
	}
	for _, q := range tbl.Qs {
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

// TestTable1PlanStreamsMatchMeasureCell: the plan builds each stream once
// and hands it to all of its cells. At a 1 s budget the streams are too
// long for the process-wide memo to retain, so only the plan shares
// them; every cell must still equal a standalone MeasureCell over
// streams of its own, in its penalties and in the per-regime runs its
// stats are derived from.
func TestTable1PlanStreamsMatchMeasureCell(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement runs in -short mode")
	}
	const budget, seed = simtime.Second, 7
	_, parts, snaps := table1Partials(t, CampaignParams{BudgetSec: budget.SecondsF(), Seed: seed})
	mc := DefaultOptions().Machine
	mc.Processors = 1
	pats := memtrace.Patterns()
	names := make([]string, len(pats))
	for i, p := range pats {
		names[i] = p.Name
	}
	for qi, q := range measure.DefaultQs() {
		for pi, p := range pats {
			pen, err := measure.MeasureCell(mc, measure.NewStreams(pats, budget, seed), pi, q)
			if err != nil {
				t.Fatalf("%s at Q=%v: %v", p.Name, q, err)
			}
			i := qi*len(pats) + pi
			if parts[i].PNARaw != int64(pen.PNA) {
				t.Errorf("%s at Q=%v: plan P^NA %d, standalone %d", p.Name, q, parts[i].PNARaw, pen.PNA)
			}
			for iv, d := range pen.PA {
				if parts[i].PARaw[iv] != int64(d) {
					t.Errorf("%s/%s at Q=%v: plan P^A %d, standalone %d", p.Name, iv, q, parts[i].PARaw[iv], d)
				}
			}
			if want := table1CellStats(mc, pen, names, budget); snaps[i].Total != want {
				t.Errorf("%s at Q=%v: plan cell stats %+v, standalone %+v", p.Name, q, snaps[i].Total, want)
			}
		}
	}
	ss := measure.NewStreams(pats, budget, seed)
	if _, err := measure.MeasureCell(mc, ss, -1, 25*simtime.Millisecond); err == nil {
		t.Error("negative measured index accepted")
	}
	if _, err := measure.MeasureCell(mc, ss, len(pats), 25*simtime.Millisecond); err == nil {
		t.Error("out-of-range measured index accepted")
	}
}

// TestConvertersExact: the views the exhibits render from a served
// campaign equal, bit for bit, what the cells computed. For table1 every
// penalty must come back as the cell's own nanosecond count; for compare
// the converted summaries must equal a direct ComparePoliciesCtx grid.
func TestConvertersExact(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	for _, seed := range []uint64{1, 2, 3} {
		p := CampaignParams{Fast: true, BudgetSec: 0.4, Seed: seed}
		plan, parts, _ := table1Partials(t, p)
		raws := make([][]byte, len(parts))
		for i, part := range parts {
			b, err := report.CanonicalJSON(part)
			if err != nil {
				t.Fatal(err)
			}
			raws[i] = b
		}
		res, err := plan.Merge(context.Background(), raws)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := Table1From(res.(Table1CampaignResult))
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range measure.DefaultQs() {
			for pi, app := range t1.Apps {
				pen, part := t1.Cells[q][app], parts[qi*len(t1.Apps)+pi]
				if int64(pen.PNA) != part.PNARaw {
					t.Errorf("seed %d %s at Q=%v: P^NA %d, cell %d", seed, app, q, pen.PNA, part.PNARaw)
				}
				if len(pen.PA) != len(part.PARaw) {
					t.Errorf("seed %d %s at Q=%v: %d P^A, cell %d", seed, app, q, len(pen.PA), len(part.PARaw))
				}
				for iv, raw := range part.PARaw {
					if int64(pen.PA[iv]) != raw {
						t.Errorf("seed %d %s/%s at Q=%v: P^A %d, cell %d", seed, app, iv, q, pen.PA[iv], raw)
					}
				}
			}
		}

		opts := FastOptions()
		opts.Replications = 1
		opts.Seed = seed
		policies := []string{"Equipartition", "Dynamic", "Dyn-Aff"}
		cr, err := RunCompare(context.Background(), opts, 0, policies)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := ComparePoliciesCtx(context.Background(), opts, cr.Mixes, policies)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cr, grid) {
			t.Errorf("seed %d: converted compare result differs from the grid", seed)
		}
	}
}

// TestMicrosRoundTripExact checks the arithmetic Table1From relies on:
// a nanosecond count below 2^45 survives float64 µs and back.
func TestMicrosRoundTripExact(t *testing.T) {
	rng := xrand.New(1, 0)
	for i := 0; i < 200000; i++ {
		d := simtime.Duration(rng.Uint64() >> 19) // below 2^45
		if got := fromMicros(d.Micros()); got != d {
			t.Fatalf("%d ns came back as %d", d, got)
		}
	}
}

// TestOptionsParamsRoundTrip: Params is the one mapping from a CLI's
// options to a campaign, so a campaign must run under exactly the options
// the CLI parsed, for every preset and budget the CLIs use.
func TestOptionsParamsRoundTrip(t *testing.T) {
	withBudget := func(o Options, sec float64) Options {
		o.MeasureBudget = simtime.Seconds(sec)
		return o
	}
	custom := FastOptions()
	custom.Machine.Processors = 8
	custom.Replications = 1
	custom.Seed = 99
	custom.Workers = 3
	custom.Engine = EngineAnalytic
	presets := map[string]Options{
		"default":           DefaultOptions(),
		"fast":              FastOptions(),
		"fast -budget 0.2":  withBudget(FastOptions(), 0.2),
		"fast -budget 0.4":  withBudget(FastOptions(), 0.4),
		"default -budget 3": withBudget(DefaultOptions(), 3),
		"custom":            custom,
	}
	for name, o := range presets {
		back, err := o.Params().options()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, o) {
			t.Errorf("%s: round trip\n got %+v\nwant %+v", name, back, o)
		}
	}
}
