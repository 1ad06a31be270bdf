package experiments

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/report"
)

func TestCampaignRegistryKinds(t *testing.T) {
	want := []string{"characterize", "table1", "compare", "future", "futuresim", "relatedwork"}
	got := Campaigns()
	if len(got) != len(want) {
		t.Fatalf("got %d campaigns, want %d", len(got), len(want))
	}
	for i, c := range got {
		if c.Kind != want[i] {
			t.Errorf("campaign %d: got kind %q, want %q", i, c.Kind, want[i])
		}
		if c.Description == "" {
			t.Errorf("campaign %q has no description", c.Kind)
		}
		byKind, ok := CampaignByKind(c.Kind)
		if !ok || byKind.Kind != c.Kind {
			t.Errorf("CampaignByKind(%q) = %v, %v", c.Kind, byKind.Kind, ok)
		}
	}
	if _, ok := CampaignByKind("nonsense"); ok {
		t.Error("CampaignByKind accepted an unknown kind")
	}
}

func TestCampaignNormalizeDefaults(t *testing.T) {
	c, _ := CampaignByKind("compare")
	n, err := c.Normalize(CampaignParams{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Seed != 1 || n.Procs != 16 || n.Replications != 5 || n.AppScale != 1 {
		t.Errorf("unexpected defaults: %+v", n)
	}
	if len(n.Policies) == 0 {
		t.Error("compare normalization left the policy list empty")
	}
	// Normalization is idempotent, so semantically identical requests
	// (zero-value vs spelled-out defaults) share one cache identity.
	n2, err := c.Normalize(n)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := report.CanonicalJSON(n)
	b, _ := report.CanonicalJSON(n2)
	if !bytes.Equal(a, b) {
		t.Errorf("normalization not idempotent:\n%s\n%s", a, b)
	}
	// An explicitly-spelled default request normalizes to the same bytes.
	n3, err := c.Normalize(CampaignParams{Seed: 1, Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	cjson, _ := report.CanonicalJSON(n3)
	if !bytes.Equal(a, cjson) {
		t.Errorf("equivalent requests normalize differently:\n%s\n%s", a, cjson)
	}
}

func TestCampaignNormalizeZeroesIrrelevantFields(t *testing.T) {
	c, _ := CampaignByKind("table1")
	n, err := c.Normalize(CampaignParams{Mix: 5, MaxProduct: 64, Policies: []string{"Dyn-Aff"}, Products: []float64{4}})
	if err != nil {
		t.Fatal(err)
	}
	if n.Mix != 0 || n.MaxProduct != 0 || n.Policies != nil || n.Products != nil {
		t.Errorf("table1 normalization kept irrelevant fields: %+v", n)
	}
	if n.BudgetSec != 20 {
		t.Errorf("table1 budget default: got %v, want 20", n.BudgetSec)
	}
}

func TestCampaignNormalizeRejectsBadParams(t *testing.T) {
	cases := []struct {
		kind string
		p    CampaignParams
	}{
		{"compare", CampaignParams{Mix: 99}},
		{"compare", CampaignParams{Policies: []string{"NoSuchPolicy"}}},
		{"futuresim", CampaignParams{Products: []float64{0.5}}},
		{"future", CampaignParams{MaxProduct: 0.25}},
		{"table1", CampaignParams{Procs: -1}},
		{"table1", CampaignParams{BudgetSec: 0.01}}, // below the largest Q
	}
	for _, tc := range cases {
		c, ok := CampaignByKind(tc.kind)
		if !ok {
			t.Fatalf("unknown kind %q", tc.kind)
		}
		if _, err := c.Run(context.Background(), tc.p); err == nil {
			t.Errorf("%s %+v: expected an error", tc.kind, tc.p)
		}
	}
}

// fastCampaignParams is a scaled-down parameterization cheap enough for
// unit tests.
func fastCampaignParams() CampaignParams {
	return CampaignParams{Fast: true, Replications: 1, BudgetSec: 0.5, Workers: 2}
}

// TestCampaignRunDeterministicJSON runs the cheap kinds twice and asserts
// the canonical encodings match byte for byte — the property the service's
// result cache relies on.
func TestCampaignRunDeterministicJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	for _, kind := range []string{"characterize", "relatedwork"} {
		c, _ := CampaignByKind(kind)
		enc := func() []byte {
			res, err := c.Run(context.Background(), fastCampaignParams())
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			b, err := report.CanonicalJSON(res)
			if err != nil {
				t.Fatalf("%s: encode: %v", kind, err)
			}
			return b
		}
		a, b := enc(), enc()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two runs produced different canonical JSON", kind)
		}
		if len(a) == 0 || a[0] != '{' {
			t.Errorf("%s: implausible result encoding %q", kind, a[:min(len(a), 40)])
		}
	}
}

// TestCampaignRunCancelled checks a cancelled context aborts a campaign
// with the context's error rather than running it to completion.
func TestCampaignRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []string{"characterize", "table1", "compare", "future", "futuresim", "relatedwork"} {
		c, _ := CampaignByKind(kind)
		if _, err := c.Run(ctx, fastCampaignParams()); err == nil {
			t.Errorf("%s: cancelled run returned no error", kind)
		}
	}
}

// campaignResult runs kind through Campaign.Run and returns its result as
// the kind's wire type.
func campaignResult[T any](t *testing.T, ctx context.Context, kind string, p CampaignParams) T {
	t.Helper()
	c, ok := CampaignByKind(kind)
	if !ok {
		t.Fatalf("unknown kind %q", kind)
	}
	res, err := c.Run(ctx, p)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", kind, p.Workers, err)
	}
	out, ok := res.(T)
	if !ok {
		t.Fatalf("%s: result is %T", kind, res)
	}
	return out
}

// TestWithBaseline checks the future kind's comparison list gains the
// Equipartition baseline exactly once, whether or not the request already
// names it — a duplicate would simulate the most expensive cells twice.
func TestWithBaseline(t *testing.T) {
	cases := []struct {
		in, want []string
	}{
		{[]string{"Dynamic", "Dyn-Aff"}, []string{"Equipartition", "Dynamic", "Dyn-Aff"}},
		{[]string{"Equipartition", "Dynamic"}, []string{"Equipartition", "Dynamic"}},
		{[]string{"Dynamic", "Equipartition"}, []string{"Dynamic", "Equipartition"}},
		{nil, []string{"Equipartition"}},
	}
	for _, tc := range cases {
		got := withBaseline(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("withBaseline(%v) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("withBaseline(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}
