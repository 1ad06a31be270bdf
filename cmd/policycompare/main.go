// Command policycompare reproduces the paper's Section-6 policy comparison
// in isolation: Figures 5 and 6 (response times of the dynamic policies
// relative to Equipartition across the six Table-2 workload mixes) and
// Tables 3 and 4 (the influence of affinity on scheduling, and the cost of
// sacrificing fairness to affinity).
//
// Usage:
//
//	policycompare [-procs N] [-reps N] [-seed N] [-mix N] [-fast] [-csv] [-timeshare] [-workers N] [-engine sim|analytic|auto]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	common := cliflags.Register(flag.CommandLine)
	common.RegisterEngine(flag.CommandLine)
	procs := flag.Int("procs", 16, "number of processors")
	reps := flag.Int("reps", 5, "replications per cell (2 with -fast)")
	mixNo := flag.Int("mix", 0, "restrict to one workload mix (1-6, 0 = all)")
	fast := flag.Bool("fast", false, "scaled-down quick mode")
	csv := flag.Bool("csv", false, "emit CSV")
	timeshare := flag.Bool("timeshare", false, "include the time-sharing baseline")
	flag.Parse()
	// The compare grid takes any tier, but an unknown -engine value must
	// fail here, not be silently folded to the simulator downstream.
	if err := experiments.ValidateEngine("compare", common.Engine); err != nil {
		fmt.Fprintln(os.Stderr, "policycompare:", err)
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
		fmt.Fprintln(os.Stderr, "policycompare:", err)
		os.Exit(1)
	}
	err = run(opts, *mixNo, *csv, *timeshare)
	if err == nil {
		err = common.WriteStats(os.Stdout)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "policycompare:", err)
		os.Exit(1)
	}
}

func run(opts experiments.Options, mixNo int, csv, timeshare bool) error {
	policies := []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri"}
	if timeshare {
		policies = append(policies, "TimeShare-RR")
	}
	cr, err := experiments.RunCompare(context.Background(), opts, mixNo, policies)
	if err != nil {
		return err
	}

	emit := func(t report.Table) error {
		if csv {
			return t.WriteCSV(os.Stdout)
		}
		if err := t.Write(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	dynPolicies := []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}
	if timeshare {
		dynPolicies = append(dynPolicies, "TimeShare-RR")
	}
	fig5, err := cr.Figure5Report(dynPolicies)
	if err != nil {
		return err
	}
	if err := emit(fig5); err != nil {
		return err
	}
	fig6, err := cr.Figure5Report([]string{"Dyn-Aff-NoPri"})
	if err != nil {
		return err
	}
	fig6.Title = "Figure 6 — Dyn-Aff-NoPri response times relative to Equipartition"
	if err := emit(fig6); err != nil {
		return err
	}
	for _, mix := range cr.Mixes {
		if mix.Number == 5 || mixNo == mix.Number {
			t3, err := cr.Table3Report(mix.Number, []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"})
			if err != nil {
				return err
			}
			if err := emit(t3); err != nil {
				return err
			}
		}
	}
	var homog []int
	for _, mix := range cr.Mixes {
		if mix.Homogeneous() {
			homog = append(homog, mix.Number)
		}
	}
	if len(homog) > 0 {
		t4, err := cr.Table4Report(homog, "Dyn-Aff", "Dyn-Aff-NoPri")
		if err != nil {
			return err
		}
		if err := emit(t4); err != nil {
			return err
		}
	}
	return nil
}
