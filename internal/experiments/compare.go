package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CompareResult holds the replication-averaged outcomes of scheduling the
// given mixes under the given policies — the data behind Figures 5–6 and
// Tables 3–4.
type CompareResult struct {
	Opts     Options
	Mixes    []workload.Mix
	Policies []string
	// Summaries[mixNumber][policy][jobIndex]
	Summaries map[int]map[string][]JobSummary
}

// ComparePoliciesCtx schedules every mix under every policy, replicated
// with distinct seeds, and aggregates per-job metrics. It is the compare
// cell's engine, which runs it on one (mix, policy) coordinate; exhibits
// reach it through RunCompare. It fans the individual
// (mix, policy, replication) simulation runs out over opts.Workers worker
// goroutines. Each cell's seed is parallel.CellSeed(opts.Seed, mix number,
// replication) — a pure function of the cell's grid coordinates — and
// results are merged in grid order after all cells finish, so the output is
// bitwise identical for every worker count. The seed deliberately excludes
// the policy index: replication r observes the same workload under every
// policy (common random numbers), which keeps relative response times
// low-variance. On error the campaign is cancelled and the error of the
// lowest-numbered failing cell is returned, matching what a sequential loop
// would have reported. ctx cancellation aborts outstanding cells.
func ComparePoliciesCtx(ctx context.Context, opts Options, mixes []workload.Mix, policies []string) (*CompareResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(mixes) == 0 || len(policies) == 0 {
		return nil, fmt.Errorf("experiments: need at least one mix and one policy")
	}
	// Fail fast on bad inputs before spinning up workers: every mix must be
	// valid and every policy name constructible. Policies themselves are
	// built per cell inside the workers — policy values carry per-run state
	// and must never be shared across goroutines.
	for _, mix := range mixes {
		if err := mix.Validate(); err != nil {
			return nil, err
		}
	}
	for _, polName := range policies {
		if _, ok := core.ByName(polName); !ok {
			return nil, fmt.Errorf("experiments: unknown policy %q", polName)
		}
	}

	// One slot per (mix, policy, replication) cell, merged in index order
	// below. idx = (mi*len(policies) + pi)*R + rep.
	R := opts.Replications
	runs := make([]sched.Result, len(mixes)*len(policies)*R)
	err := parallel.ForEach(ctx, opts.Workers, len(runs), func(ctx context.Context, idx int) error {
		rep := idx % R
		pi := idx / R % len(policies)
		mi := idx / R / len(policies)
		mix, polName := mixes[mi], policies[pi]
		seed := parallel.CellSeed(opts.Seed, uint64(mix.Number), uint64(rep))
		pol, ok := core.ByName(polName)
		if !ok {
			return fmt.Errorf("experiments: unknown policy %q", polName)
		}
		// Resolve the engine tier from the cell's canonical coordinate —
		// the same resolution the cell planner performs, so a multi-
		// coordinate call and a single-coordinate compare cell agree bit
		// for bit under engine=auto.
		engine := resolveCellEngine(opts.engine(), compareCellCoord(
			opts.Machine.Processors, R, opts.AppScale, opts.Seed, mix.Number, polName))
		res, err := runCell(engine, sched.Config{
			Machine: opts.Machine,
			Policy:  pol,
			Apps:    opts.apps(mix, seed),
			Seed:    seed,
		})
		if err != nil {
			return fmt.Errorf("experiments: mix #%d policy %s: %w", mix.Number, polName, err)
		}
		runs[idx] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Fold per-run simulation stats in grid order (never inside the
	// workers), keyed by policy, so the collector's totals are identical
	// at every worker count.
	if opts.Stats != nil {
		parallel.Fold(runs, func(idx int, res sched.Result) {
			opts.Stats.Add(policies[idx/R%len(policies)], res.Stats)
		})
	}

	cr := &CompareResult{
		Opts:      opts,
		Mixes:     mixes,
		Policies:  policies,
		Summaries: make(map[int]map[string][]JobSummary),
	}
	for mi, mix := range mixes {
		cr.Summaries[mix.Number] = make(map[string][]JobSummary)
		for pi, polName := range policies {
			base := (mi*len(policies) + pi) * R
			cr.Summaries[mix.Number][polName] = summarize(runs[base:base+R], R)
		}
	}
	return cr, nil
}

// summarize aggregates one cell's replications, in replication order.
// Response times are summed in that order and divided once by the
// replication count.
func summarize(runs []sched.Result, reps int) []JobSummary {
	var sums []JobSummary
	for _, res := range runs {
		if sums == nil {
			sums = make([]JobSummary, len(res.Jobs))
			for i := range sums {
				sums[i].App = res.Jobs[i].App
			}
		}
		for i, j := range res.Jobs {
			s := &sums[i]
			s.MeanRTSec += j.ResponseTime.SecondsF()
			n := float64(reps)
			s.WorkSec += j.Work.SecondsF() / n
			s.WasteSec += j.Waste.SecondsF() / n
			s.MissSec += j.MissTime.SecondsF() / n
			s.SwitchSec += j.SwitchTime.SecondsF() / n
			s.AvgAlloc += j.AvgAlloc / n
			s.Reallocations += float64(j.Reallocations) / n
			s.PctAffinity += j.PctAffinity() / n
			s.IntervalMs += j.ReallocInterval().Millis() / n
		}
	}
	for i := range sums {
		sums[i].MeanRTSec /= float64(len(runs))
	}
	return sums
}

// RunCompare runs the compare campaign under opts over one mix (0 = all
// six) and the given policies (nil = the kind's default list), and
// converts its result into the view the exhibits render. With opts.Stats
// set, the campaign's simulation counters fold into it.
func RunCompare(ctx context.Context, opts Options, mix int, policies []string) (*CompareResult, error) {
	p := opts.Params()
	p.Mix, p.Policies = mix, policies
	res, err := runCampaign(ctx, "compare", opts, p)
	if err != nil {
		return nil, err
	}
	return CompareResultFrom(opts, res.(CompareCampaignResult))
}

// CompareResultFrom converts a compare campaign's wire result into the
// CompareResult the Section-6 and Section-7 exhibits read. The
// conversion is exact: each row carries its cell's replication means,
// and JSON round-trips a float64 bit for bit. opts supplies what the
// wire result leaves out: the machine and extraction Q the future model
// reads, and the worker bound of its sweep.
func CompareResultFrom(opts Options, res CompareCampaignResult) (*CompareResult, error) {
	cr := &CompareResult{
		Opts:      opts,
		Policies:  res.Policies,
		Summaries: make(map[int]map[string][]JobSummary, len(res.Mixes)),
	}
	for _, n := range res.Mixes {
		mix, err := workload.MixByNumber(n)
		if err != nil {
			return nil, err
		}
		cr.Mixes = append(cr.Mixes, mix)
		cr.Summaries[n] = make(map[string][]JobSummary, len(res.Policies))
	}
	for _, row := range res.Rows {
		bypol, ok := cr.Summaries[row.Mix]
		if !ok {
			return nil, fmt.Errorf("experiments: compare row for unlisted mix #%d", row.Mix)
		}
		// A policy listed twice repeats its rows; keep one copy.
		if row.Job != len(bypol[row.Policy]) {
			continue
		}
		bypol[row.Policy] = append(bypol[row.Policy], row.JobSummary)
	}
	return cr, nil
}

// Relative returns each job's mean response time under policy divided by
// its mean response time under baseline, for one mix.
func (cr *CompareResult) Relative(mixNumber int, policy, baseline string) ([]float64, error) {
	mix, ok := cr.Summaries[mixNumber]
	if !ok {
		return nil, fmt.Errorf("experiments: no mix #%d", mixNumber)
	}
	ps, ok := mix[policy]
	if !ok {
		return nil, fmt.Errorf("experiments: mix #%d has no policy %q", mixNumber, policy)
	}
	bs, ok := mix[baseline]
	if !ok {
		return nil, fmt.Errorf("experiments: mix #%d has no baseline %q", mixNumber, baseline)
	}
	out := make([]float64, len(ps))
	for i := range ps {
		out[i] = stats.Ratio(ps[i].MeanRTSec, bs[i].MeanRTSec)
	}
	return out, nil
}

// Figure5Report renders response times of the dynamic policies relative to
// Equipartition for every job in every mix (the paper's Figure 5; with
// Dyn-Aff-NoPri in the policy list it also covers Figure 6).
func (cr *CompareResult) Figure5Report(policies []string) (report.Table, error) {
	t := report.Table{
		Title:   "Figure 5 — response times relative to Equipartition",
		Headers: []string{"mix", "job"},
	}
	t.Headers = append(t.Headers, policies...)
	for _, mix := range cr.Mixes {
		rel := make(map[string][]float64)
		for _, p := range policies {
			r, err := cr.Relative(mix.Number, p, "Equipartition")
			if err != nil {
				return report.Table{}, err
			}
			rel[p] = r
		}
		jobs := cr.Summaries[mix.Number][policies[0]]
		for i, js := range jobs {
			row := []string{fmt.Sprintf("#%d", mix.Number), fmt.Sprintf("%s-%d", js.App, i)}
			for _, p := range policies {
				row = append(row, report.F(rel[p][i], 3))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Table3Report renders the affinity-influence table for one mix (the
// paper's Table 3 uses mix #5): %affinity, #reallocations, reallocation
// interval, and response time per job under each policy.
func (cr *CompareResult) Table3Report(mixNumber int, policies []string) (report.Table, error) {
	mix, ok := cr.Summaries[mixNumber]
	if !ok {
		return report.Table{}, fmt.Errorf("experiments: no mix #%d", mixNumber)
	}
	t := report.Table{
		Title:   fmt.Sprintf("Table 3 — influence of affinity on scheduling (mix #%d)", mixNumber),
		Headers: []string{"metric"},
	}
	for _, p := range policies {
		sums, ok := mix[p]
		if !ok {
			return report.Table{}, fmt.Errorf("experiments: mix #%d has no policy %q", mixNumber, p)
		}
		for i, js := range sums {
			t.Headers = append(t.Headers, fmt.Sprintf("%s %s-%d", p, js.App, i))
		}
	}
	addRow := func(name string, get func(JobSummary) string) {
		row := []string{name}
		for _, p := range policies {
			for _, js := range mix[p] {
				row = append(row, get(js))
			}
		}
		t.AddRow(row...)
	}
	addRow("%affinity", func(js JobSummary) string { return report.Pct(js.PctAffinity) })
	addRow("#reallocations", func(js JobSummary) string { return report.F(js.Reallocations, 0) })
	addRow("realloc interval (ms)", func(js JobSummary) string { return report.F(js.IntervalMs, 0) })
	addRow("response time (s)", func(js JobSummary) string { return report.F(js.MeanRTSec, 1) })
	return t, nil
}

// Table4Report renders the average job response times of the homogeneous
// mixes under two policies (the paper's Table 4: Dyn-Aff vs Dyn-Aff-NoPri
// on mixes 1 and 4).
func (cr *CompareResult) Table4Report(mixNumbers []int, policyA, policyB string) (report.Table, error) {
	t := report.Table{
		Title:   "Table 4 — average job response time, homogeneous workloads (s)",
		Headers: []string{"workload", policyA, policyB},
	}
	for _, n := range mixNumbers {
		mix, ok := cr.Summaries[n]
		if !ok {
			return report.Table{}, fmt.Errorf("experiments: no mix #%d", n)
		}
		mean := func(policy string) (float64, error) {
			sums, ok := mix[policy]
			if !ok {
				return 0, fmt.Errorf("experiments: mix #%d has no policy %q", n, policy)
			}
			total := 0.0
			for _, js := range sums {
				total += js.MeanRTSec
			}
			return total / float64(len(sums)), nil
		}
		a, err := mean(policyA)
		if err != nil {
			return report.Table{}, err
		}
		b, err := mean(policyB)
		if err != nil {
			return report.Table{}, err
		}
		var name string
		for _, m := range cr.Mixes {
			if m.Number == n {
				name = m.String()
			}
		}
		t.AddRow(name, report.F(a, 2), report.F(b, 2))
	}
	return t, nil
}
