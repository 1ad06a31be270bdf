// Command measurepenalty reproduces the paper's Table 1 in isolation: the
// per-context-switch cache penalties P^A and P^NA for each application,
// each intervening application, and each rescheduling interval Q, measured
// with the Section-4 stationary/migrating/multiprogrammed protocol against
// the exact cache simulator.
//
// Usage:
//
//	measurepenalty [-budget SEC] [-seed N] [-csv] [-detail] [-workers N] [-engine sim]
//
// -detail additionally prints the underlying run data (response times,
// switch counts, miss counts) for each regime.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/measure"
	"repro/internal/memtrace"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/simtime"
)

func main() {
	common := cliflags.Register(flag.CommandLine)
	common.RegisterEngine(flag.CommandLine)
	budget := flag.Float64("budget", 20, "per-run compute budget (seconds)")
	csv := flag.Bool("csv", false, "emit CSV")
	detail := flag.Bool("detail", false, "print per-regime run details (measures every cell a second time: about 2.2x the wall time)")
	flag.Parse()
	// Table 1 has no simulation grid: -engine exists for CLI uniformity
	// but only the simulator tier is meaningful, and asking for another
	// must fail fast with the service's field-path error rather than be
	// silently ignored.
	if err := experiments.ValidateEngine("table1", common.Engine); err != nil {
		fmt.Fprintln(os.Stderr, "measurepenalty:", err)
		os.Exit(1)
	}

	opts := experiments.DefaultOptions()
	opts.MeasureBudget = simtime.Seconds(*budget)
	common.Apply(&opts)
	stopProf, err := common.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "measurepenalty:", err)
		os.Exit(1)
	}
	err = run(opts, *csv, *detail)
	if err == nil {
		err = common.WriteStats(os.Stdout)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "measurepenalty:", err)
		os.Exit(1)
	}
}

func run(opts experiments.Options, csv, detail bool) error {
	t1, err := experiments.RunTable1(context.Background(), opts)
	if err != nil {
		return err
	}
	for _, t := range experiments.Table1Report(t1) {
		if csv {
			if err := t.WriteCSV(os.Stdout); err != nil {
				return err
			}
		} else {
			if err := t.Write(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	if detail {
		return writeDetail(opts, t1)
	}
	return nil
}

// writeDetail re-measures every cell of t1 with measure.MeasureCell, the
// function the table1 campaign's cells run, at the campaign's own
// normalized budget and seed, on opts.Workers workers, and prints the
// per-regime runs behind each penalty.
func writeDetail(opts experiments.Options, t1 measure.Table1) error {
	camp, _ := experiments.CampaignByKind("table1")
	np, err := camp.Normalize(opts.Params())
	if err != nil {
		return err
	}
	mc := opts.Machine
	mc.Processors = 1 // the paper's measurement uses a single processor
	pats := memtrace.Patterns()
	streams := measure.NewStreams(pats, simtime.Seconds(np.BudgetSec), np.Seed)
	// One slot per (Q, measured application); idx = qi*len(pats) + pi.
	pens := make([]measure.Penalties, len(t1.Qs)*len(pats))
	err = parallel.ForEach(context.Background(), opts.Workers, len(pens), func(_ context.Context, idx int) error {
		pen, err := measure.MeasureCell(mc, streams, idx%len(pats), t1.Qs[idx/len(pats)])
		pens[idx] = pen
		return err
	})
	if err != nil {
		return err
	}
	t := report.Table{
		Title: "Per-regime run detail",
		Headers: []string{"Q", "measured", "regime", "intervening",
			"RT (s)", "switches", "misses", "miss ratio"},
	}
	addRun := func(q simtime.Duration, app, intervening string, r measure.RunResult) {
		ratio := 0.0
		if r.Accesses > 0 {
			ratio = float64(r.Misses) / float64(r.Accesses)
		}
		t.AddRow(q.String(), app, r.Regime.String(), intervening,
			report.F(r.ResponseTime.SecondsF(), 3),
			fmt.Sprintf("%d", r.Switches),
			fmt.Sprintf("%d", r.Misses),
			report.F(ratio, 4))
	}
	for _, pen := range pens {
		addRun(pen.Q, pen.Measured, "-", pen.Stationary)
		addRun(pen.Q, pen.Measured, "-", pen.Migrating)
		for _, iv := range t1.Apps {
			if r, ok := pen.Multi[iv]; ok {
				addRun(pen.Q, pen.Measured, iv, r)
			}
		}
	}
	return t.Write(os.Stdout)
}
