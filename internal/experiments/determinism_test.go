package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// The campaign runner's core guarantee: results are a pure function of the
// options, never of the worker count or of goroutine completion order. Each
// campaign below runs once sequentially and once on eight workers (on a grid
// much larger than eight cells, so work genuinely interleaves) and the
// outputs must match bitwise — reflect.DeepEqual over float64s tolerates no
// ULP of drift.

func determinismOpts() Options {
	o := FastOptions()
	o.MeasureBudget = 2 * simtime.Second
	return o
}

func TestComparePoliciesDeterministicAcrossWorkers(t *testing.T) {
	mixes := workload.Mixes()[:3]
	policies := []string{"Equipartition", "Dyn-Aff"}
	run := func(workers int) *CompareResult {
		t.Helper()
		o := determinismOpts()
		o.Workers = workers
		cr, err := ComparePoliciesCtx(context.Background(), o, mixes, policies)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return cr
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq.Summaries, par.Summaries) {
		t.Fatal("ComparePolicies summaries differ between Workers=1 and Workers=8")
	}
}

func TestFutureScenariosDeterministicAcrossWorkers(t *testing.T) {
	mixes := workload.Mixes()[:2]
	policies := []string{"Equipartition", "Dyn-Aff"}
	run := func(workers int) map[ScenarioKey]interface{} {
		t.Helper()
		o := determinismOpts()
		o.Workers = workers
		cr, err := ComparePoliciesCtx(context.Background(), o, mixes, policies)
		if err != nil {
			t.Fatalf("workers=%d: compare: %v", workers, err)
		}
		t1, err := Table1Ctx(context.Background(), o)
		if err != nil {
			t.Fatalf("workers=%d: table1: %v", workers, err)
		}
		scen, err := FutureScenarios(cr, t1)
		if err != nil {
			t.Fatalf("workers=%d: scenarios: %v", workers, err)
		}
		out := make(map[ScenarioKey]interface{}, len(scen))
		for k, v := range scen {
			out[k] = v
		}
		return out
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("FutureScenarios outputs differ between Workers=1 and Workers=8")
	}
}

func TestFutureSimulatedDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) FutureSimCampaignResult {
		return campaignResult[FutureSimCampaignResult](t, context.Background(), "futuresim",
			CampaignParams{Fast: true, Mix: 5, Policies: []string{"Dyn-Aff"}, Products: []float64{1, 4}, Workers: workers})
	}
	if seq, par := run(1), run(8); !reflect.DeepEqual(seq, par) {
		t.Fatal("futuresim points differ between Workers=1 and Workers=8")
	}
}

func TestCharacterizeDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []AppCharacter {
		return campaignResult[CharacterizeCampaignResult](t, context.Background(), "characterize",
			CampaignParams{Fast: true, Workers: workers}).Apps
	}
	if seq, par := run(1), run(8); !reflect.DeepEqual(seq, par) {
		t.Fatal("characterize results differ between Workers=1 and Workers=8")
	}
}

// TestCampaignRunStatsDeterministicAcrossWorkers pins the same invariance
// for stats collected through Campaign.Run: its cells run concurrently,
// so each folds into a private collector and Run merges those into the
// caller's in cell order. Letting cells add to the shared collector
// directly would sum floats (InvalLines) in completion order.
func TestCampaignRunStatsDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		kind string
		p    CampaignParams
	}{
		{"compare", CampaignParams{Fast: true, Policies: []string{"Equipartition", "Dyn-Aff"}}},
		{"table1", CampaignParams{Fast: true, BudgetSec: 2}},
		{"futuresim", CampaignParams{Fast: true, Policies: []string{"Dyn-Aff"}, Products: []float64{1, 4, 16}}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			run := func(workers int) obs.CampaignSnapshot {
				t.Helper()
				cs := obs.NewCampaignStats()
				p := tc.p
				p.Workers = workers
				campaignResult[any](t, obs.WithCollector(context.Background(), cs), tc.kind, p)
				return cs.Snapshot()
			}
			seq, par := run(1), run(8)
			if seq.Cells == 0 || seq.Total.Runs == 0 {
				t.Fatalf("collector stayed empty: %+v", seq)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("SimStats differ between Workers=1 and Workers=8:\nseq %+v\npar %+v", seq, par)
			}
		})
	}
}

// TestSimStatsDeterministicAcrossWorkers extends the worker-count
// invariance to the out-of-band instrumentation: the folded SimStats —
// totals, per-policy breakdown, cell count, even the eventq high-water
// mark — must be identical whether cells ran sequentially or on eight
// workers. Stats are folded in grid order after the parallel phase, so
// this holds by construction; the test pins it.
func TestSimStatsDeterministicAcrossWorkers(t *testing.T) {
	mixes := workload.Mixes()[:3]
	policies := []string{"Equipartition", "Dyn-Aff"}
	run := func(workers int) obs.CampaignSnapshot {
		t.Helper()
		o := determinismOpts()
		o.Workers = workers
		o.Stats = obs.NewCampaignStats()
		if _, err := ComparePoliciesCtx(context.Background(), o, mixes, policies); err != nil {
			t.Fatalf("workers=%d: compare: %v", workers, err)
		}
		if _, err := Table1Ctx(context.Background(), o); err != nil {
			t.Fatalf("workers=%d: table1: %v", workers, err)
		}
		return o.Stats.Snapshot()
	}
	seq, par := run(1), run(8)
	if seq.Cells == 0 || seq.Total.Runs == 0 || seq.Total.Reallocations == 0 {
		t.Fatalf("collector stayed empty: %+v", seq.Total)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("SimStats differ between Workers=1 and Workers=8:\nseq %+v\npar %+v", seq, par)
	}
}

func TestValidateRejectsNegativeWorkers(t *testing.T) {
	o := FastOptions()
	o.Workers = -1
	if err := o.Validate(); err == nil {
		t.Fatal("Workers=-1 accepted")
	}
}

func TestComparePoliciesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := determinismOpts()
	o.Workers = 4
	if _, err := ComparePoliciesCtx(ctx, o, workload.Mixes()[:1], []string{"Equipartition"}); err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
}
