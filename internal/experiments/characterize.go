package experiments

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workload"
)

// AppCharacter reports one application's characteristics measured in
// isolation on the experiment machine, as in the paper's Figures 2–4.
type AppCharacter struct {
	Name string
	// ElapsedSec is the isolated execution time.
	ElapsedSec float64
	// TotalWorkSec is the graph's total compute.
	TotalWorkSec float64
	// AvgDemand is the average number of processors executing threads.
	AvgDemand float64
	// MaxParallelism is the widest level of the dependence graph.
	MaxParallelism int
	// Threads is the thread count.
	Threads int
	// ProfilePct[k] is the percentage of elapsed time spent at physical
	// parallelism level k.
	ProfilePct []float64
}

// characterizeApps returns the applications characterized in isolation:
// the three single-application mixes instantiated at the configured
// scale, in fixed order.
func characterizeApps(opts Options) []workload.App {
	mixApps := []workload.App{}
	for _, m := range []workload.Mix{{Number: 0, MVA: 1}, {Number: 0, Matrix: 1}, {Number: 0, Gravity: 1}} {
		mixApps = append(mixApps, opts.apps(m, opts.Seed)...)
	}
	return mixApps
}

// characterizeApp simulates one application alone under Equipartition and
// derives its Figures 2-4 character.
func characterizeApp(opts Options, app workload.App) (AppCharacter, obs.SimStats, error) {
	res, err := runSim(sched.Config{
		Machine: opts.Machine,
		Policy:  core.NewEquipartition(),
		Apps:    []workload.App{app},
		Seed:    opts.Seed,
	})
	if err != nil {
		return AppCharacter{}, obs.SimStats{}, err
	}
	j := res.Jobs[0]
	elapsed := j.ResponseTime.SecondsF()
	ch := AppCharacter{
		Name:           app.Name,
		ElapsedSec:     elapsed,
		TotalWorkSec:   app.Graph.TotalWork().SecondsF(),
		MaxParallelism: app.MaxParallelism(),
		Threads:        app.Graph.NumThreads(),
	}
	var weighted, total float64
	for level, d := range res.Profile {
		weighted += float64(level) * d.SecondsF()
		total += d.SecondsF()
	}
	ch.ProfilePct = make([]float64, len(res.Profile))
	if total > 0 {
		for level, d := range res.Profile {
			ch.ProfilePct[level] = 100 * d.SecondsF() / total
		}
		ch.AvgDemand = weighted / total
	}
	return ch, res.Stats, nil
}

// CharacterTable renders the characterization as a table in the spirit of
// the captions of Figures 2–4.
func CharacterTable(chars []AppCharacter) report.Table {
	t := report.Table{
		Title:   "Application characteristics (isolated, 16 processors) — Figures 2-4",
		Headers: []string{"app", "threads", "max par", "elapsed (s)", "total work (s)", "avg demand"},
	}
	for _, c := range chars {
		t.AddRow(c.Name,
			report.F(float64(c.Threads), 0),
			report.F(float64(c.MaxParallelism), 0),
			report.F(c.ElapsedSec, 2),
			report.F(c.TotalWorkSec, 1),
			report.F(c.AvgDemand, 1),
		)
	}
	return t
}

// ProfileTable renders the percentage of time spent at each parallelism
// level, the body of Figures 2–4.
func ProfileTable(chars []AppCharacter) report.Table {
	t := report.Table{
		Title:   "%% time at each level of physical parallelism",
		Headers: []string{"level"},
	}
	maxLevels := 0
	for _, c := range chars {
		t.Headers = append(t.Headers, c.Name)
		if len(c.ProfilePct) > maxLevels {
			maxLevels = len(c.ProfilePct)
		}
	}
	for level := 0; level < maxLevels; level++ {
		row := []string{report.F(float64(level), 0)}
		for _, c := range chars {
			v := 0.0
			if level < len(c.ProfilePct) {
				v = c.ProfilePct[level]
			}
			row = append(row, report.F(v, 1))
		}
		t.AddRow(row...)
	}
	return t
}
