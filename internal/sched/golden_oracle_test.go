package sched_test

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sched"
)

// TestSnapshotOracleGoldenCampaigns runs every simulator campaign of the
// root package's golden set (same kinds, seeds and parameters) with the
// snapshot oracle installed: the incrementally published allocator
// snapshot must equal a full rebuild before every Rebalance of every run,
// and every run's Figure-1 counts must add up.
func TestSnapshotOracleGoldenCampaigns(t *testing.T) {
	snapshots, runs := sched.WithSnapshotOracle(t)
	for _, g := range []struct {
		kind   string
		params experiments.CampaignParams
	}{
		{"compare", experiments.CampaignParams{Fast: true, Seed: 1}},
		{"compare", experiments.CampaignParams{Fast: true, Seed: 12345,
			Policies: []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-NoPri"}}},
		{"futuresim", experiments.CampaignParams{Fast: true, Seed: 3}},
		{"characterize", experiments.CampaignParams{Fast: true, Seed: 6}},
		{"relatedwork", experiments.CampaignParams{Fast: true, Seed: 6}},
	} {
		camp, ok := experiments.CampaignByKind(g.kind)
		if !ok {
			t.Fatalf("unknown campaign kind %q", g.kind)
		}
		before := runs()
		if _, err := camp.Run(context.Background(), g.params); err != nil {
			t.Fatalf("%s seed %d: %v", g.kind, g.params.Seed, err)
		}
		if runs() == before {
			t.Fatalf("%s seed %d ran no simulation the oracle saw", g.kind, g.params.Seed)
		}
	}
	t.Logf("%d snapshots over %d runs checked", snapshots(), runs())
}
