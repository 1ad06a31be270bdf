package experiments

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/parallel"
	"repro/internal/report"
)

// TestCellMergeMatchesMonolithic is the cell contract: for every
// registered kind, splitting the campaign into cells, executing them in
// reversed order (on 1 and on 8 workers), and merging the canonical-JSON
// partials reproduces the bytes of Campaign.Run, which executes the same
// plan in order. Partials therefore carry no positional state, and the
// daemon — which executes cells in whatever order its cache misses and
// workers dictate — serves Campaign.Run's bytes.
func TestCellMergeMatchesMonolithic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	cases := []struct {
		kind string
		p    CampaignParams
	}{
		{"characterize", CampaignParams{Fast: true, Replications: 1}},
		{"table1", CampaignParams{Fast: true, BudgetSec: 0.5}},
		{"compare", CampaignParams{Fast: true, Replications: 1, Mix: 5, Policies: []string{"Equipartition", "Dyn-Aff"}}},
		{"future", CampaignParams{Fast: true, Replications: 1, BudgetSec: 0.5, Policies: []string{"Dynamic"}}},
		{"futuresim", CampaignParams{Fast: true, Replications: 1, Mix: 5, Policies: []string{"Dynamic"}, Products: []float64{1, 4}}},
		{"relatedwork", CampaignParams{Fast: true, Replications: 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.kind, func(t *testing.T) {
			t.Parallel()
			c, ok := CampaignByKind(tc.kind)
			if !ok {
				t.Fatalf("unknown kind %q", tc.kind)
			}
			mono, err := c.Run(context.Background(), tc.p)
			if err != nil {
				t.Fatal(err)
			}
			monoJSON, err := report.CanonicalJSON(mono)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				p := tc.p
				p.Workers = workers
				plan, err := Cells(tc.kind, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(plan.Cells) == 0 {
					t.Fatal("empty cell plan")
				}
				for _, cell := range plan.Cells {
					if cell.ID == "" || cell.KeyKind == "" || len(cell.KeyParams) == 0 {
						t.Fatalf("cell missing identity: %+v", cell)
					}
				}
				// Execute the cells back to front, fanned out over the worker
				// pool, to prove the partials carry no positional state.
				n := len(plan.Cells)
				partials := make([][]byte, n)
				err = parallel.ForEach(context.Background(), workers, n, func(ctx context.Context, i int) error {
					cell := &plan.Cells[n-1-i]
					res, err := cell.Run(ctx)
					if err != nil {
						return err
					}
					b, err := report.CanonicalJSON(res)
					if err != nil {
						return err
					}
					partials[n-1-i] = b
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				merged, err := plan.Merge(context.Background(), partials)
				if err != nil {
					t.Fatal(err)
				}
				mergedJSON, err := report.CanonicalJSON(merged)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(monoJSON, mergedJSON) {
					t.Errorf("workers=%d: merged bytes differ from Campaign.Run\nrun:    %.200s\nmerged: %.200s",
						workers, monoJSON, mergedJSON)
				}
			}
		})
	}
}

// TestFutureCellKeysSharedWithStandalone checks that the future kind's
// cells carry exactly the cache identities of the equivalent standalone
// compare and table1 campaigns, so prior runs of either kind (or another
// future run with an overlapping policy list) seed its cache entries.
// Plan construction runs no simulations, so this is cheap.
func TestFutureCellKeysSharedWithStandalone(t *testing.T) {
	future, err := Cells("future", CampaignParams{Fast: true, Replications: 1, BudgetSec: 0.5, Policies: []string{"Dynamic"}})
	if err != nil {
		t.Fatal(err)
	}
	compare, err := Cells("compare", CampaignParams{Fast: true, Replications: 1, Policies: []string{"Equipartition", "Dynamic"}})
	if err != nil {
		t.Fatal(err)
	}
	table1, err := Cells("table1", CampaignParams{Fast: true, BudgetSec: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Cell(nil), compare.Cells...), table1.Cells...)
	if len(future.Cells) != len(want) {
		t.Fatalf("future plan has %d cells, want %d (compare %d + table1 %d)",
			len(future.Cells), len(want), len(compare.Cells), len(table1.Cells))
	}
	for i, cell := range future.Cells {
		if cell.KeyKind != want[i].KeyKind || !bytes.Equal(cell.KeyParams, want[i].KeyParams) {
			t.Errorf("cell %d (%s): key %s %s, want %s %s",
				i, cell.ID, cell.KeyKind, cell.KeyParams, want[i].KeyKind, want[i].KeyParams)
		}
	}
}

// TestCellKeysDistinguishParams checks that every parameter that changes
// a cell's bytes forks its cache key, and that Workers does not.
func TestCellKeysDistinguishParams(t *testing.T) {
	base := CampaignParams{Fast: true, Replications: 1, Mix: 5, Policies: []string{"Dynamic"}}
	keyOf := func(p CampaignParams) string {
		plan, err := Cells("compare", p)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Cells[0].KeyKind + "\x00" + string(plan.Cells[0].KeyParams)
	}
	ref := keyOf(base)

	workers := base
	workers.Workers = 8
	if keyOf(workers) != ref {
		t.Error("Workers forked the cell key; results are worker-count invariant")
	}
	for name, mut := range map[string]func(*CampaignParams){
		"seed":  func(p *CampaignParams) { p.Seed = 99 },
		"procs": func(p *CampaignParams) { p.Procs = 8 },
		"reps":  func(p *CampaignParams) { p.Replications = 3 },
	} {
		p := base
		mut(&p)
		if keyOf(p) == ref {
			t.Errorf("%s change did not fork the cell key", name)
		}
	}
}

// TestCellsRejectsBadInput covers the plan-construction error paths.
func TestCellsRejectsBadInput(t *testing.T) {
	if _, err := Cells("nonsense", CampaignParams{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Cells("compare", CampaignParams{Mix: 99}); err == nil {
		t.Error("invalid params accepted")
	}
	plan, err := Cells("relatedwork", CampaignParams{Fast: true, Replications: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Merge(context.Background(), make([][]byte, len(plan.Cells)+1)); err == nil {
		t.Error("partial-count mismatch accepted")
	}
	if _, err := plan.Merge(context.Background(), make([][]byte, len(plan.Cells))); err == nil {
		t.Error("empty partial accepted")
	}
}
