package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestFutureSimulated(t *testing.T) {
	policies := []string{"Dynamic", "Dyn-Aff"}
	res := campaignResult[FutureSimCampaignResult](t, context.Background(), "futuresim", CampaignParams{
		Fast: true, Replications: 1, Mix: 5, Policies: policies, Products: []float64{1, 16, 64},
	})
	pts := res.Points
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		for _, p := range policies {
			rel := pt.SimRel[p]
			if rel <= 0 || rel > 2 {
				t.Errorf("product %v %s: simulated relative RT %v implausible", pt.Product, p, rel)
			}
		}
	}
	// At product 1 the simulation is the baseline machine: the dynamic
	// policies beat Equipartition.
	if pts[0].SimRel["Dynamic"] > 1.02 {
		t.Errorf("baseline simulated relative RT %v > 1", pts[0].SimRel["Dynamic"])
	}
	// On much faster machines the dynamic policies must still not
	// collapse: the paper's conclusion is that they remain at or below
	// Equipartition far into the future, and the simulated applications
	// (with fixed 1991 footprints) are the optimistic bracket of the
	// model, so their relative RT stays below the model's growth.
	if pts[2].SimRel["Dyn-Aff"] > 1.1 {
		t.Errorf("simulated Dyn-Aff at product 64: relative RT %v", pts[2].SimRel["Dyn-Aff"])
	}

	modelRel := map[string][]float64{"Dynamic": {0.9, 0.95, 1.0}}
	tab := FutureSimTable(pts, modelRel, policies)
	var b strings.Builder
	if err := tab.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "sim") || !strings.Contains(b.String(), "model") {
		t.Error("table missing sim/model columns")
	}
}

// TestFutureSimulatedErrors checks that a bad product, policy or mix is
// rejected as a ParamError naming the offending field, before anything
// is simulated.
func TestFutureSimulatedErrors(t *testing.T) {
	c, _ := CampaignByKind("futuresim")
	cases := []struct {
		what  string
		p     CampaignParams
		field string
	}{
		{"sub-unit product", CampaignParams{Fast: true, Policies: []string{"Dynamic"}, Products: []float64{0.5}}, "params.products[0]"},
		{"bogus policy", CampaignParams{Fast: true, Policies: []string{"bogus"}, Products: []float64{1}}, "params.policies[0]"},
		{"empty mix", CampaignParams{Fast: true, Mix: 9, Policies: []string{"Dynamic"}, Products: []float64{1}}, "params.mix"},
	}
	for _, tc := range cases {
		_, err := c.Run(context.Background(), tc.p)
		if err == nil {
			t.Errorf("%s accepted", tc.what)
			continue
		}
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Field != tc.field {
			t.Errorf("%s: error %v, want a ParamError on %s", tc.what, err, tc.field)
		}
	}
}
