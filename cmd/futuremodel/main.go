// Command futuremodel reproduces the paper's Section-7 extrapolation in
// isolation: it runs the scheduling experiments and the Table-1 penalty
// measurements, parameterizes the extended response-time model (Figure 7),
// and sweeps the processor-speed × cache-size product to regenerate
// Figures 8-13, including the crossover points at which each dynamic policy
// stops beating Equipartition.
//
// Usage:
//
//	futuremodel [-procs N] [-reps N] [-seed N] [-fast] [-maxproduct P] [-csv] [-simulate] [-workers N] [-engine sim|analytic|auto]
//
// -simulate additionally re-runs the scheduling simulation on the scaled
// machines themselves and prints simulated vs model relative response
// times — a validation the paper's authors could not perform.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	common := cliflags.Register(flag.CommandLine)
	common.RegisterEngine(flag.CommandLine)
	procs := flag.Int("procs", 16, "number of processors")
	reps := flag.Int("reps", 5, "replications per cell (2 with -fast)")
	fast := flag.Bool("fast", false, "scaled-down quick mode")
	maxProduct := flag.Float64("maxproduct", 4096, "largest speed*cache product")
	csv := flag.Bool("csv", false, "emit sweep data as CSV instead of charts")
	simulate := flag.Bool("simulate", false, "also simulate the scaled machines directly")
	flag.Parse()
	// The future sweep takes any tier, but an unknown -engine value must
	// fail here, not be silently folded to the simulator downstream.
	if err := experiments.ValidateEngine("future", common.Engine); err != nil {
		fmt.Fprintln(os.Stderr, "futuremodel:", err)
		os.Exit(1)
	}

	opts := experiments.DefaultOptions()
	if *fast {
		opts = experiments.FastOptions()
	}
	opts.Machine.Processors = *procs
	// -reps overrides the preset only when given, so -fast keeps its own.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "reps" {
			opts.Replications = *reps
		}
	})
	common.Apply(&opts)
	stopProf, err := common.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "futuremodel:", err)
		os.Exit(1)
	}
	scen, err := run(opts, *maxProduct, *csv)
	if err == nil && *simulate {
		err = runSimulated(opts, scen)
	}
	if err == nil {
		err = common.WriteStats(os.Stdout)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "futuremodel:", err)
		os.Exit(1)
	}
}

// runSimulated re-runs mix #5 on directly scaled machines (the futuresim
// campaign, with the same options as the model half) and prints the
// simulated relative response times next to the analytic model's, taken
// from the scenarios run derived.
func runSimulated(opts experiments.Options, scen map[experiments.ScenarioKey]model.Scenario) error {
	policies := []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}
	products := []float64{1, 16, 64, 256, 1024}
	p := opts.Params()
	p.Mix, p.Policies, p.Products = 5, policies, products
	camp, _ := experiments.CampaignByKind("futuresim")
	res, err := camp.Run(obs.WithCollector(context.Background(), opts.Stats), p)
	if err != nil {
		return err
	}
	pts := res.(experiments.FutureSimCampaignResult).Points
	// Model predictions for the same products.
	sc := scen[experiments.ScenarioKey{Mix: 5, App: "GRAVITY"}]
	modelRel := make(map[string][]float64)
	for _, pol := range policies {
		ys, err := sc.SweepProduct(pol, products)
		if err != nil {
			return err
		}
		modelRel[pol] = ys
	}
	tab := experiments.FutureSimTable(pts, modelRel, policies)
	tab.Title = "Mix #5 — simulated scaled machines vs analytic model (model column: GRAVITY job)"
	return tab.Write(os.Stdout)
}

// run derives the future model from a comparison over every mix and a
// Table 1 run, renders Figures 8-13 (or their sweep data as CSV) and
// the crossover table, and returns the model's scenarios.
func run(opts experiments.Options, maxProduct float64, csv bool) (map[experiments.ScenarioKey]model.Scenario, error) {
	policies := []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}
	cr, err := experiments.RunCompare(context.Background(), opts, 0, policies)
	if err != nil {
		return nil, err
	}
	t1, err := experiments.RunTable1(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	scen, err := experiments.FutureScenarios(cr, t1)
	if err != nil {
		return nil, err
	}
	dyn := []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}

	if csv {
		return scen, writeCSV(scen, dyn, maxProduct)
	}
	charts, err := experiments.FutureCharts(cr, scen, dyn, maxProduct)
	if err != nil {
		return nil, err
	}
	for _, ch := range charts {
		if err := ch.Write(os.Stdout); err != nil {
			return nil, err
		}
		fmt.Println()
	}
	return scen, writeCrossovers(scen, dyn, maxProduct)
}

func sortedKeys(scen map[experiments.ScenarioKey]model.Scenario) []experiments.ScenarioKey {
	var keys []experiments.ScenarioKey
	for k := range scen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Mix != keys[j].Mix {
			return keys[i].Mix < keys[j].Mix
		}
		return keys[i].App < keys[j].App
	})
	return keys
}

func writeCSV(scen map[experiments.ScenarioKey]model.Scenario, policies []string, maxProduct float64) error {
	products := model.Products(maxProduct, 2)
	t := report.Table{Headers: []string{"scenario", "policy", "product", "relative_rt"}}
	for _, k := range sortedKeys(scen) {
		sc := scen[k]
		for _, pol := range policies {
			if _, ok := sc.Policies[pol]; !ok {
				continue
			}
			ys, err := sc.SweepProduct(pol, products)
			if err != nil {
				return err
			}
			for i, y := range ys {
				t.AddRow(k.String(), pol, report.F(products[i], 2), report.F(y, 5))
			}
		}
	}
	return t.WriteCSV(os.Stdout)
}

func writeCrossovers(scen map[experiments.ScenarioKey]model.Scenario, policies []string, maxProduct float64) error {
	products := model.Products(maxProduct, 4)
	t := report.Table{
		Title:   "Crossover products (relative RT reaches 1.0; 0 = never within sweep)",
		Headers: append([]string{"scenario"}, policies...),
	}
	for _, k := range sortedKeys(scen) {
		sc := scen[k]
		row := []string{k.String()}
		for _, pol := range policies {
			if _, ok := sc.Policies[pol]; !ok {
				row = append(row, "-")
				continue
			}
			cross, err := sc.Crossover(pol, products)
			if err != nil {
				return err
			}
			row = append(row, report.F(cross, 0))
		}
		t.AddRow(row...)
	}
	return t.Write(os.Stdout)
}
