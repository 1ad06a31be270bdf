// Command affinitysim reproduces the experiments of "The Implications of
// Cache Affinity on Processor Scheduling for Multiprogrammed, Shared Memory
// Multiprocessors" (Vaswani & Zahorjan, SOSP 1991) on the simulated Sequent
// Symmetry.
//
// Usage:
//
//	affinitysim characterize [flags]   # Figures 2-4: application characteristics
//	affinitysim measure      [flags]   # Table 1: P^A and P^NA penalties
//	affinitysim compare      [flags]   # Figures 5-6, Tables 3-4: policy comparison
//	affinitysim future       [flags]   # Figures 8-13: future-machine extrapolation
//	affinitysim trace        [flags]   # Gantt timeline of one run (-mix, -policy, -window)
//	affinitysim extras       [flags]   # beyond-the-paper exhibits (Section 8 contrast,
//	                                   # MPL sweep, two-level-cache analysis)
//	affinitysim all          [flags]   # everything, in paper order
//
// Common flags:
//
//	-procs N      number of processors (default 16, as in the paper)
//	-seed N       root random seed (default 1)
//	-reps N       replications per (mix, policy) cell (default 5)
//	-budget SEC   Table-1 measurement compute budget in seconds (default 20)
//	-fast         scaled-down quick mode
//	-csv          emit CSV instead of aligned tables
//	-mix N        restrict the comparison to one workload mix (1-6)
//	-timeshare    include the time-sharing round-robin baseline
//	-maxproduct P largest speed-times-cache product to sweep (default 4096)
//	-policy NAME  policy for the trace subcommand (default Dyn-Aff)
//	-window SEC   trace window length in seconds (default 5, from t=0)
//	-workers N    simulation cells run concurrently (0 = all CPUs, 1 = sequential);
//	              results are identical for every worker count
//	-stats        print the response-time decomposition table (engine
//	              counters: reallocations, P^A/P^NA charges, penalty time)
//	              after the exhibits; exhibit output is unchanged
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "affinitysim:", err)
		os.Exit(1)
	}
}

type cli struct {
	opts       experiments.Options
	csv        bool
	mix        int
	timeshare  bool
	maxProduct float64
	policy     string
	window     float64
	common     *cliflags.Common
}

func parse(args []string) (string, *cli, error) {
	if len(args) == 0 {
		return "", nil, fmt.Errorf("missing subcommand (characterize|measure|compare|future|all)")
	}
	cmd := args[0]
	fs := flag.NewFlagSet("affinitysim "+cmd, flag.ContinueOnError)
	c := &cli{opts: experiments.DefaultOptions()}
	c.common = cliflags.Register(fs)
	c.common.RegisterEngine(fs)
	procs := fs.Int("procs", c.opts.Machine.Processors, "number of processors")
	reps := fs.Int("reps", c.opts.Replications, "replications per cell")
	budget := fs.Float64("budget", c.opts.MeasureBudget.SecondsF(), "Table-1 compute budget (seconds)")
	fast := fs.Bool("fast", false, "scaled-down quick mode")
	fs.BoolVar(&c.csv, "csv", false, "emit CSV tables")
	fs.IntVar(&c.mix, "mix", 0, "restrict to one workload mix (1-6, 0 = all)")
	fs.BoolVar(&c.timeshare, "timeshare", false, "include the time-sharing baseline")
	fs.Float64Var(&c.maxProduct, "maxproduct", 4096, "largest speed*cache product")
	fs.StringVar(&c.policy, "policy", "Dyn-Aff", "policy for the trace subcommand")
	fs.Float64Var(&c.window, "window", 5, "trace window length (seconds)")
	if err := fs.Parse(args[1:]); err != nil {
		return "", nil, err
	}
	// The engine tier only exists on the grid-shaped subcommands (compare,
	// future, and all, which runs both); elsewhere -engine analytic/auto
	// would be silently ignored, so reject it up front with the same
	// field-path error the service returns for the kind the subcommand
	// drives. Grid subcommands still validate the tier name itself.
	engineKind := map[string]string{
		"characterize": "characterize",
		"measure":      "table1",
		"trace":        "trace",
		"extras":       "relatedwork",
		"compare":      "compare",
		"future":       "future",
		"all":          "future",
	}
	if k, ok := engineKind[cmd]; ok {
		if err := experiments.ValidateEngine(k, c.common.Engine); err != nil {
			return "", nil, err
		}
	}
	if *fast {
		c.opts = experiments.FastOptions()
	}
	c.opts.Machine.Processors = *procs
	c.opts.Replications = *reps
	c.opts.MeasureBudget = simtime.Seconds(*budget)
	c.common.Apply(&c.opts)
	if err := c.opts.Validate(); err != nil {
		return "", nil, err
	}
	return cmd, c, nil
}

func run(args []string) (err error) {
	cmd, c, err := parse(args)
	if err != nil {
		return err
	}
	stopProf, err := c.common.StartProfiling()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	if err := c.dispatch(cmd); err != nil {
		return err
	}
	// With -stats, the decomposition table totals every campaign the
	// subcommand ran.
	return c.common.WriteStats(os.Stdout)
}

func (c *cli) dispatch(cmd string) error {
	switch cmd {
	case "characterize":
		return c.characterize()
	case "measure":
		return c.measure()
	case "compare":
		_, err := c.compare()
		return err
	case "future":
		return c.future()
	case "trace":
		return c.trace()
	case "extras":
		return c.extras()
	case "all":
		if err := c.characterize(); err != nil {
			return err
		}
		if err := c.measure(); err != nil {
			return err
		}
		if _, err := c.compare(); err != nil {
			return err
		}
		return c.future()
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// trace runs one mix under one policy with tracing enabled and renders the
// processor-allocation Gantt timeline plus an event summary.
func (c *cli) trace() error {
	mixNo := c.mix
	if mixNo == 0 {
		mixNo = 5
	}
	mix, err := workload.MixByNumber(mixNo)
	if err != nil {
		return err
	}
	pol, ok := core.ByName(c.policy)
	if !ok {
		return fmt.Errorf("unknown policy %q", c.policy)
	}
	log := &trace.Log{}
	res, err := sched.Run(sched.Config{
		Machine: c.opts.Machine,
		Policy:  pol,
		Apps:    mix.Apps(c.opts.Seed),
		Seed:    c.opts.Seed,
		Trace:   log,
	})
	if err != nil {
		return err
	}
	end := simtime.Time(0).Add(simtime.Seconds(c.window))
	if end > res.Makespan {
		end = res.Makespan
	}
	fmt.Printf("%s on %s, %d processors — makespan %v, %d trace events\n\n",
		mix, pol.Name(), c.opts.Machine.Processors, res.Makespan, log.Len())
	fmt.Print(trace.Gantt(log.Events(), c.opts.Machine.Processors, 0, end, 100, true))
	fmt.Println()
	return trace.WriteSummary(os.Stdout, log)
}

// extras runs the beyond-the-paper exhibits.
func (c *cli) extras() error {
	res, err := c.campaign("relatedwork")
	if err != nil {
		return err
	}
	rw := res.(experiments.RelatedWorkCampaignResult).Result
	if err := c.emit(experiments.RelatedWorkTable(rw)); err != nil {
		return err
	}
	mplPolicies := []string{"Equipartition", "Dynamic", "Dyn-Aff"}
	pts, err := experiments.MPLSweep(c.opts, 4, mplPolicies)
	if err != nil {
		return err
	}
	if err := c.emit(experiments.MPLTable(pts, mplPolicies)); err != nil {
		return err
	}
	// The Section-7.2 two-level-cache feasibility analysis.
	rows, err := model.AnalyzeHierarchy(model.SymmetryHierarchy(),
		[]float64{1, 2, 4, 8, 16, 32, 64})
	if err != nil {
		return err
	}
	t := report.Table{
		Title: "Section 7.2 — can larger hit rates replace faster miss resolution?",
		Headers: []string{"speed", "required L1 hit rate", "achievable?",
			"slowdown with sqrt(speed) memory"},
	}
	for _, r := range rows {
		feas := "yes"
		if !r.Feasible {
			feas = "NO"
		}
		t.AddRow(report.F(r.Speed, 0), report.F(r.RequiredH1, 4), feas,
			report.F(r.EffectiveSlowdown, 2))
	}
	return c.emit(t)
}

func (c *cli) emit(t report.Table) error {
	if c.csv {
		return t.WriteCSV(os.Stdout)
	}
	if err := t.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// campaign runs a registered campaign kind with the parsed options; with
// -stats its simulation counters join the invocation's totals.
func (c *cli) campaign(kind string) (any, error) {
	camp, _ := experiments.CampaignByKind(kind)
	return camp.Run(obs.WithCollector(context.Background(), c.opts.Stats), experiments.CampaignParams{
		Procs:        c.opts.Machine.Processors,
		Replications: c.opts.Replications,
		BudgetSec:    c.opts.MeasureBudget.SecondsF(),
		AppScale:     c.opts.AppScale,
		Seed:         c.opts.Seed,
		Workers:      c.opts.Workers,
		Engine:       c.opts.Engine,
	})
}

func (c *cli) characterize() error {
	res, err := c.campaign("characterize")
	if err != nil {
		return err
	}
	chars := res.(experiments.CharacterizeCampaignResult).Apps
	if err := c.emit(experiments.CharacterTable(chars)); err != nil {
		return err
	}
	return c.emit(experiments.ProfileTable(chars))
}

func (c *cli) measure() error {
	t1, err := experiments.Table1(c.opts)
	if err != nil {
		return err
	}
	for _, t := range experiments.Table1Report(t1) {
		if err := c.emit(t); err != nil {
			return err
		}
	}
	return nil
}

func (c *cli) mixes() ([]workload.Mix, error) {
	if c.mix == 0 {
		return workload.Mixes(), nil
	}
	m, err := workload.MixByNumber(c.mix)
	if err != nil {
		return nil, err
	}
	return []workload.Mix{m}, nil
}

func (c *cli) policies() []string {
	ps := []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri"}
	if c.timeshare {
		ps = append(ps, "TimeShare-RR")
	}
	return ps
}

func (c *cli) compare() (*experiments.CompareResult, error) {
	mixes, err := c.mixes()
	if err != nil {
		return nil, err
	}
	cr, err := experiments.ComparePolicies(c.opts, mixes, c.policies())
	if err != nil {
		return nil, err
	}
	fig5, err := cr.Figure5Report([]string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"})
	if err != nil {
		return nil, err
	}
	if err := c.emit(fig5); err != nil {
		return nil, err
	}
	fig6, err := cr.Figure5Report([]string{"Dyn-Aff-NoPri"})
	if err != nil {
		return nil, err
	}
	fig6.Title = "Figure 6 — Dyn-Aff-NoPri response times relative to Equipartition"
	if err := c.emit(fig6); err != nil {
		return nil, err
	}
	if c.timeshare {
		ts, err := cr.Figure5Report([]string{"TimeShare-RR"})
		if err != nil {
			return nil, err
		}
		ts.Title = "Extra — TimeShare-RR (quantum-driven) relative to Equipartition"
		if err := c.emit(ts); err != nil {
			return nil, err
		}
	}
	for _, mix := range mixes {
		if mix.Number == 5 || c.mix == mix.Number {
			t3, err := cr.Table3Report(mix.Number, []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"})
			if err != nil {
				return nil, err
			}
			if err := c.emit(t3); err != nil {
				return nil, err
			}
		}
	}
	var homog []int
	for _, mix := range mixes {
		if mix.Homogeneous() {
			homog = append(homog, mix.Number)
		}
	}
	if len(homog) > 0 {
		t4, err := cr.Table4Report(homog, "Dyn-Aff", "Dyn-Aff-NoPri")
		if err != nil {
			return nil, err
		}
		if err := c.emit(t4); err != nil {
			return nil, err
		}
	}
	return cr, nil
}

func (c *cli) future() error {
	mixes, err := c.mixes()
	if err != nil {
		return err
	}
	cr, err := experiments.ComparePolicies(c.opts, mixes, c.policies())
	if err != nil {
		return err
	}
	t1, err := experiments.Table1(c.opts)
	if err != nil {
		return err
	}
	scen, err := experiments.FutureScenarios(cr, t1)
	if err != nil {
		return err
	}
	charts, err := experiments.FutureCharts(cr, scen,
		[]string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}, c.maxProduct)
	if err != nil {
		return err
	}
	for _, ch := range charts {
		if err := ch.Write(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
