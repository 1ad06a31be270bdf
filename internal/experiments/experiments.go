// Package experiments wires the substrate packages into the paper's
// experiments. Every experiment is a registered campaign kind (Campaigns,
// CampaignByKind) that splits into a cell plan (Cells); Campaign.Run
// executes that plan in process, and affinityd serves the same plan
// through its cell cache, so both produce the same bytes.
//
// The campaign kinds (see DESIGN.md for the full index):
//
//   - characterize → Figures 2–4 (application characteristics)
//   - table1       → Table 1 (P^A and P^NA per application and Q)
//   - compare      → Figures 5 and 6, Tables 3 and 4
//   - future       → Figures 8–13 (model extrapolation)
//   - futuresim    → Section 7 (directly simulated future machines)
//   - relatedwork  → Section 8 (time sharing vs space sharing)
//
// The whole-grid drivers ComparePolicies and Table1 remain for the
// exhibits that need more than a campaign's wire result (per-regime
// measurements, per-job summaries); the compare cell runs
// ComparePolicies on its single coordinate.
package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options configures an experiment campaign.
type Options struct {
	// Machine is the hardware model. The paper's experiments use the
	// Symmetry restricted to 16 processors.
	Machine machine.Config
	// Seed is the campaign's root random seed.
	Seed uint64
	// Replications is the number of independent runs averaged per
	// (mix, policy) cell.
	Replications int
	// MeasureBudget is the per-run compute budget for the Table-1
	// penalty measurements.
	MeasureBudget simtime.Duration
	// ExtractionQ is the Table-1 rescheduling interval whose penalties
	// parameterize the future model (Section 7.3). Zero selects, per job,
	// the tabulated Q nearest its observed reallocation interval; the
	// default follows the paper and uses one fixed Q for every policy —
	// 400 ms, the tabulated interval closest to the dynamic policies'
	// observed 240-780 ms reallocation intervals.
	ExtractionQ simtime.Duration
	// AppScale shrinks the applications for fast test runs: 1 = paper
	// scale, larger divisors shrink thread counts.
	AppScale int
	// Workers bounds the number of simulation cells run concurrently.
	// Zero (the default) uses runtime.GOMAXPROCS(0); one forces a fully
	// sequential campaign. Results are bitwise identical for every worker
	// count: each cell's seed is derived from Seed and the cell's grid
	// coordinates, never from execution order.
	Workers int
	// Stats, when non-nil, collects per-run simulation statistics
	// (reallocations, P^A/P^NA charges, penalty time, …) across the
	// campaign's cells, folded in deterministic grid order after each
	// parallel phase so the totals are worker-count independent. Stats is
	// out-of-band telemetry: it never feeds a result body or a result-
	// cache key, and leaving it nil costs nothing.
	Stats *obs.CampaignStats
	// Engine selects the per-cell execution tier for the grid-shaped
	// campaigns (EngineSim, EngineAnalytic, or EngineAuto; empty means
	// EngineSim). Non-grid experiments (table1, characterize,
	// relatedwork, MPLSweep) always simulate and ignore it.
	Engine string
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	m := machine.Symmetry()
	m.Processors = 16 // the paper runs its workloads on 16 processors
	return Options{
		Machine:       m,
		Seed:          1,
		Replications:  5,
		MeasureBudget: 20 * simtime.Second,
		ExtractionQ:   400 * simtime.Millisecond,
		AppScale:      1,
	}
}

// FastOptions returns a configuration for quick smoke runs and unit tests:
// scaled-down applications, fewer replications, shorter measurements.
func FastOptions() Options {
	o := DefaultOptions()
	o.Replications = 2
	o.MeasureBudget = 4 * simtime.Second
	o.AppScale = 4
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	if err := o.Machine.Validate(); err != nil {
		return err
	}
	if o.Replications < 1 {
		return fmt.Errorf("experiments: need at least one replication")
	}
	if o.MeasureBudget <= 0 {
		return fmt.Errorf("experiments: non-positive measurement budget")
	}
	if o.AppScale < 1 {
		return fmt.Errorf("experiments: AppScale must be >= 1")
	}
	if o.Workers < 0 {
		return fmt.Errorf("experiments: Workers must be >= 0, got %d", o.Workers)
	}
	if _, err := normalizeEngine(o.Engine); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// engine returns the normalized engine tier (Validate has already rejected
// unknown values).
func (o Options) engine() string {
	e, err := normalizeEngine(o.Engine)
	if err != nil {
		return EngineSim
	}
	return e
}

// apps instantiates a mix's applications at the configured scale. seed
// feeds GRAVITY's thread-time jitter so replications differ.
func (o Options) apps(m workload.Mix, seed uint64) []workload.App {
	if o.AppScale <= 1 {
		return m.Apps(seed)
	}
	// Scaled-down instances: same structure, fewer/shorter threads.
	var out []workload.App
	s := o.AppScale
	for i := 0; i < m.MVA; i++ {
		out = append(out, workload.MVASized(max(4, 24/s*2), 180*simtime.Millisecond))
	}
	for i := 0; i < m.Matrix; i++ {
		out = append(out, workload.MatrixSized(max(4, 22/s*2), 850*simtime.Millisecond/simtime.Duration(s)))
	}
	for i := 0; i < m.Gravity; i++ {
		out = append(out, workload.GravitySized(max(2, 28/s), 128, 200*simtime.Millisecond,
			20*simtime.Millisecond, seed+uint64(i)*0x9e3779b9))
	}
	return out
}

// JobSummary aggregates one job's metrics across replications of one
// (mix, policy) cell.
type JobSummary struct {
	// App names the application type.
	App string
	// RT collects per-replication response times in seconds.
	RT *stats.Sample
	// The remaining fields are replication means.
	WorkSec       float64 // processor-seconds of compute
	WasteSec      float64 // processor-seconds held idle
	MissSec       float64 // processor-seconds stalled on misses
	SwitchSec     float64 // processor-seconds of switch overhead
	AvgAlloc      float64
	Reallocations float64
	PctAffinity   float64
	IntervalMs    float64 // mean per-processor reallocation interval
}

// MeanRT returns the mean response time in seconds.
func (s JobSummary) MeanRT() float64 { return s.RT.Mean() }
