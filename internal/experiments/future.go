package experiments

import (
	"context"
	"fmt"

	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// ScenarioKey identifies one extrapolation scenario: one application type
// within one workload mix (the paper's Figures 8–13 are one figure per
// workload, plotting a representative application).
type ScenarioKey struct {
	Mix int
	App string
}

// String renders the key like the paper's figure captions
// ("wkload5 - GRAVITY").
func (k ScenarioKey) String() string { return fmt.Sprintf("wkload%d - %s", k.Mix, k.App) }

// FutureScenarios extracts model parameters from the scheduling experiments
// and the Table-1 penalty measurements, producing one model.Scenario per
// (mix, application type) — the Section 7.3 procedure:
//
//   - #reallocations, %affinity, waste, and average allocation come
//     directly from the measured job metrics;
//   - P^A and P^NA come from the Table-1 cell at the Q nearest the job's
//     observed reallocation interval, with P^A averaged over the other
//     applications in the mix;
//   - work is backed out of equation (1) so that the model reproduces the
//     measured response time exactly at speed = cache = 1.
func FutureScenarios(cr *CompareResult, t1 measure.Table1) (map[ScenarioKey]model.Scenario, error) {
	out := make(map[ScenarioKey]model.Scenario)
	switchSec := cr.Opts.Machine.SwitchPath.SecondsF()
	for _, mix := range cr.Mixes {
		// Application types present in this mix, for P^A averaging.
		var present []string
		for _, js := range cr.Summaries[mix.Number][cr.Policies[0]] {
			present = append(present, js.App)
		}
		for _, app := range uniqueStrings(present) {
			key := ScenarioKey{Mix: mix.Number, App: app}
			sc := model.Scenario{
				Name:     key.String(),
				Baseline: "Equipartition",
				Policies: make(map[string]model.Params),
			}
			for _, pol := range cr.Policies {
				sums := cr.Summaries[mix.Number][pol]
				// Average jobs of this application type.
				var agg JobSummary
				n := 0
				for _, js := range sums {
					if js.App != app {
						continue
					}
					if n == 0 {
						// The first job of the type supplies the response time.
						agg.MeanRTSec = js.MeanRTSec
					}
					n++
					agg.WasteSec += js.WasteSec
					agg.AvgAlloc += js.AvgAlloc
					agg.Reallocations += js.Reallocations
					agg.PctAffinity += js.PctAffinity
					agg.IntervalMs += js.IntervalMs
				}
				if n == 0 {
					continue
				}
				fn := float64(n)
				agg.WasteSec /= fn
				agg.AvgAlloc /= fn
				agg.Reallocations /= fn
				agg.PctAffinity /= fn
				agg.IntervalMs /= fn

				intervening := otherApps(present, app)
				q := cr.Opts.ExtractionQ
				if q == 0 {
					q = simtime.Duration(agg.IntervalMs * float64(simtime.Millisecond))
				}
				pa, pna := PenaltyFor(t1, app, intervening, q)
				rt := agg.MeanRTSec
				penalty := agg.PctAffinity*pa + (1-agg.PctAffinity)*pna
				work := rt*agg.AvgAlloc - agg.WasteSec - agg.Reallocations*(switchSec+penalty)
				if work <= 0 {
					work = rt * agg.AvgAlloc * 0.01 // degenerate; keep the model valid
				}
				p := model.Params{
					Work:          work,
					Waste:         agg.WasteSec,
					Reallocations: agg.Reallocations,
					ReallocTime:   switchSec,
					PctAffinity:   agg.PctAffinity,
					PA:            pa,
					PNA:           pna,
					AvgAlloc:      agg.AvgAlloc,
				}
				if err := p.Validate(); err != nil {
					return nil, fmt.Errorf("experiments: %s/%s: %w", key, pol, err)
				}
				sc.Policies[pol] = p
			}
			if err := sc.Validate(); err != nil {
				return nil, err
			}
			out[key] = sc
		}
	}
	return out, nil
}

func uniqueStrings(in []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func otherApps(present []string, app string) []string {
	var out []string
	for _, s := range uniqueStrings(present) {
		if s != app {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		// Homogeneous mix: the intervening tasks are instances of the
		// same application.
		out = []string{app}
	}
	return out
}

// FigureApp selects the representative application plotted for each mix in
// the paper's Figures 8–13.
func FigureApp(mix workload.Mix) string {
	switch {
	case mix.Gravity > 0 && mix.Number >= 3:
		return "GRAVITY"
	case mix.Matrix > 0:
		return "MATRIX"
	default:
		return "MVA"
	}
}

// FutureCharts produces one chart per mix: the dynamic policies' relative
// response times against the speed×cache product (Figures 8–13). It is
// FutureChartsCtx without cancellation.
func FutureCharts(cr *CompareResult, scenarios map[ScenarioKey]model.Scenario, policies []string, maxProduct float64) ([]report.Chart, error) {
	return FutureChartsCtx(context.Background(), cr, scenarios, policies, maxProduct)
}

// FutureChartsCtx is FutureCharts with cancellation.
func FutureChartsCtx(ctx context.Context, cr *CompareResult, scenarios map[ScenarioKey]model.Scenario, policies []string, maxProduct float64) ([]report.Chart, error) {
	products := model.Products(maxProduct, 2)
	// Sweep each mix's scenario on the campaign's worker pool; slots keep
	// the charts in mix order, and figure numbers are assigned afterwards
	// so skipped mixes do not leave gaps.
	slots := make([]*report.Chart, len(cr.Mixes))
	err := parallel.ForEach(ctx, cr.Opts.Workers, len(cr.Mixes), func(ctx context.Context, mi int) error {
		mix := cr.Mixes[mi]
		key := ScenarioKey{Mix: mix.Number, App: FigureApp(mix)}
		sc, ok := scenarios[key]
		if !ok {
			return nil
		}
		ch := &report.Chart{
			Title:  key.String(),
			XLabel: "processor-speed x cache-size (log2)",
			YLabel: "RT / RT(Equipartition)",
			Xs:     products,
			LogX:   true,
			RefY:   1.0,
			RefYOn: true,
		}
		for _, pol := range policies {
			if _, ok := sc.Policies[pol]; !ok {
				continue
			}
			ys, err := sc.SweepProduct(pol, products)
			if err != nil {
				return err
			}
			ch.Series = append(ch.Series, report.Series{Name: pol, Ys: ys})
		}
		slots[mi] = ch
		return nil
	})
	if err != nil {
		return nil, err
	}
	var charts []report.Chart
	figure := 8
	for _, ch := range slots {
		if ch == nil {
			continue
		}
		ch.Title = fmt.Sprintf("Figure %d — relative response times, %s", figure, ch.Title)
		charts = append(charts, *ch)
		figure++
	}
	return charts, nil
}
