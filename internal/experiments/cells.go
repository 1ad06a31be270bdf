package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file decomposes every registered campaign into cells: the
// independently executable, independently cacheable units of its grid.
// Cells → execute → Merge is the only way a campaign runs: Campaign.Run
// executes every cell in process, and affinityd executes only the cells
// its tiered cell cache misses. Each cell's bytes depend only on the
// parameters captured in its key material — never on the rest of the
// grid — so overlapping campaigns (a superset policy list, a second kind
// sharing a sub-grid) address the same cache entries, and a merge over
// any mix of fresh and cached partials is byte-identical to Campaign.Run.
//
// The invariants every per-kind builder maintains:
//
//  1. Cells are listed in the kind's grid order, so the merge can
//     reassemble by index.
//  2. Partials carry enough raw precision for the merge to perform each
//     lossy conversion (simtime.Duration -> float microseconds, ratio
//     against a baseline) exactly once. Replication means are folded in
//     replication order inside the cell, exactly as the whole-grid
//     drivers (ComparePolicies, Table1) accumulate them.
//  3. Key params exclude Workers (results are bitwise identical at every
//     worker count) and exclude the grid lists themselves (a cell's
//     identity is its own coordinates, so supersets reuse subsets).

// Cell is one unit of a sharded campaign.
type Cell struct {
	// ID names the cell within its plan, e.g. "mix=5/policy=Dyn-Aff".
	ID string
	// KeyKind is the cell's cache namespace ("cell/compare", ...).
	// Kinds that share cell shapes share namespaces: a future campaign's
	// policy cells are compare cells, so a prior compare run seeds them.
	KeyKind string
	// KeyParams is the canonical JSON of every parameter that can
	// influence the cell's bytes, ready to hash into a cache key.
	KeyParams []byte
	// Engine is the resolved execution tier of this cell — EngineSim or
	// EngineAnalytic, never EngineAuto: auto resolves against the promotion
	// envelope at planning time, so cache keys (which include Engine for
	// the grid-shaped kinds) carry only concrete tiers and an auto cell
	// shares its entry with the same cell requested explicitly. Empty for
	// kinds without an engine choice.
	Engine string

	run func(ctx context.Context) (any, error)
}

// Run executes the cell. The result is JSON-marshalable, byte-stable
// under report.CanonicalJSON, and bitwise identical at every worker
// count. If ctx carries an obs collector, per-run simulation stats fold
// into it out of band.
func (c *Cell) Run(ctx context.Context) (any, error) { return c.run(ctx) }

// CellPlan is a campaign split into cells plus the deterministic merge
// that reassembles the campaign's wire result.
type CellPlan struct {
	Kind string
	// Params is the campaign's normalized parameterization.
	Params CampaignParams
	// Cells in the kind's grid order.
	Cells []Cell

	merge func(ctx context.Context, partials []json.RawMessage) (any, error)
}

// Merge reassembles the campaign result from one canonical-JSON partial
// per cell, in Cells order. The output marshals (under
// report.CanonicalJSON) to exactly the bytes Campaign.Run produces for
// the same params.
func (p *CellPlan) Merge(ctx context.Context, partials [][]byte) (any, error) {
	if len(partials) != len(p.Cells) {
		return nil, fmt.Errorf("experiments: %s: %d partials for %d cells", p.Kind, len(partials), len(p.Cells))
	}
	raws := make([]json.RawMessage, len(partials))
	for i, b := range partials {
		if len(b) == 0 {
			return nil, fmt.Errorf("experiments: %s: missing partial for cell %s", p.Kind, p.Cells[i].ID)
		}
		raws[i] = json.RawMessage(b)
	}
	return p.merge(ctx, raws)
}

// Cells normalizes p and splits the campaign into its cell plan.
func Cells(kind string, p CampaignParams) (*CellPlan, error) {
	c, ok := CampaignByKind(kind)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown campaign kind %q", kind)
	}
	np, err := c.Normalize(p)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "characterize":
		return characterizeCellPlan(np)
	case "table1":
		return table1CellPlan(np)
	case "compare":
		return compareCellPlan(np)
	case "future":
		return futureCellPlan(np)
	case "futuresim":
		return futureSimCellPlan(np)
	case "relatedwork":
		return relatedWorkCellPlan(np)
	}
	return nil, fmt.Errorf("experiments: campaign kind %q has no cell decomposition", kind)
}

// decodeParts unmarshals one partial per cell into the kind's partial
// type.
func decodeParts[T any](raws []json.RawMessage) ([]T, error) {
	out := make([]T, len(raws))
	for i, r := range raws {
		if err := json.Unmarshal(r, &out[i]); err != nil {
			return nil, fmt.Errorf("experiments: decode cell partial %d: %w", i, err)
		}
	}
	return out, nil
}

func cellKey(v any) ([]byte, error) { return report.CanonicalJSON(v) }

// ---- characterize ------------------------------------------------------

// characterizeCellKey is the cache identity of one isolated-application
// characterization. AppScale changes the application itself, Procs the
// machine it runs on, Seed every random draw.
type characterizeCellKey struct {
	Procs    int    `json:"procs"`
	AppScale int    `json:"app_scale"`
	Seed     uint64 `json:"seed"`
	App      string `json:"app"`
}

// characterizeCellPlan runs each application alone on the experiment
// machine and reports its parallelism characteristics (the paper's
// Figures 2-4), one cell per application in characterizeApps order.
func characterizeCellPlan(np CampaignParams) (*CellPlan, error) {
	opts, err := np.options()
	if err != nil {
		return nil, err
	}
	apps := characterizeApps(opts)
	plan := &CellPlan{Kind: "characterize", Params: np}
	for i := range apps {
		i := i
		key, err := cellKey(characterizeCellKey{
			Procs: np.Procs, AppScale: np.AppScale, Seed: np.Seed, App: apps[i].Name,
		})
		if err != nil {
			return nil, err
		}
		plan.Cells = append(plan.Cells, Cell{
			ID:        "app=" + apps[i].Name,
			KeyKind:   "cell/characterize",
			KeyParams: key,
			run: func(ctx context.Context) (any, error) {
				o, err := np.optionsCtx(ctx)
				if err != nil {
					return nil, err
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				ch, st, err := characterizeApp(o, characterizeApps(o)[i])
				if err != nil {
					return nil, err
				}
				if o.Stats != nil {
					o.Stats.Add("Equipartition", st)
				}
				return ch, nil
			},
		})
	}
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		chars, err := decodeParts[AppCharacter](raws)
		if err != nil {
			return nil, err
		}
		return CharacterizeCampaignResult{Apps: chars}, nil
	}
	return plan, nil
}

// ---- table1 ------------------------------------------------------------

// table1CellKey is the cache identity of one (Q, measured application)
// penalty measurement. Procs is absent: the protocol always measures on
// a single processor.
type table1CellKey struct {
	BudgetSec float64 `json:"budget_sec"`
	Seed      uint64  `json:"seed"`
	QMs       float64 `json:"q_ms"`
	App       string  `json:"app"`
}

// table1CellPartial carries one cell's penalties as raw simtime ticks,
// not float microseconds: Duration -> Micros() is a lossy float
// division, so the merge performs it exactly once.
type table1CellPartial struct {
	PNARaw int64            `json:"pna_raw"`
	PARaw  map[string]int64 `json:"pa_raw"`
}

func table1CellPlan(np CampaignParams) (*CellPlan, error) {
	if _, err := np.options(); err != nil {
		return nil, err
	}
	// DefaultQs is ascending, so cell order (q-major, pattern-minor, the
	// BuildTable1Ctx layout) already lists QsMs in ascending order.
	qs := measure.DefaultQs()
	names := patternNames()
	plan := &CellPlan{Kind: "table1", Params: np}
	for qi := range qs {
		for pi := range names {
			qi, pi := qi, pi
			key, err := cellKey(table1CellKey{
				BudgetSec: np.BudgetSec, Seed: np.Seed, QMs: qs[qi].Millis(), App: names[pi],
			})
			if err != nil {
				return nil, err
			}
			plan.Cells = append(plan.Cells, Cell{
				ID:        fmt.Sprintf("q=%gms/app=%s", qs[qi].Millis(), names[pi]),
				KeyKind:   "cell/table1",
				KeyParams: key,
				run: func(ctx context.Context) (any, error) {
					o, err := np.optionsCtx(ctx)
					if err != nil {
						return nil, err
					}
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					mc := o.Machine
					mc.Processors = 1 // the paper's measurement uses a single processor
					pats := memtrace.Patterns()
					pen, err := measure.MeasureCell(mc, pats, pi, qs[qi], o.MeasureBudget, o.Seed)
					if err != nil {
						return nil, err
					}
					if o.Stats != nil {
						o.Stats.Add("measure", table1CellStats(mc, pen, names, o.MeasureBudget))
					}
					part := table1CellPartial{
						PNARaw: int64(pen.PNA),
						PARaw:  make(map[string]int64, len(pen.PA)),
					}
					for iv, d := range pen.PA {
						part.PARaw[iv] = int64(d)
					}
					return part, nil
				},
			})
		}
	}
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		parts, err := decodeParts[table1CellPartial](raws)
		if err != nil {
			return nil, err
		}
		out := Table1CampaignResult{
			Apps:  append([]string(nil), names...),
			Cells: make(map[string]map[string]Table1CampaignCell, len(qs)),
		}
		for qi, q := range qs {
			out.QsMs = append(out.QsMs, q.Millis())
			cells := make(map[string]Table1CampaignCell, len(names))
			for pi, app := range names {
				part := parts[qi*len(names)+pi]
				cell := Table1CampaignCell{
					PNAMicros: simtime.Duration(part.PNARaw).Micros(),
					PAMicros:  make(map[string]float64, len(part.PARaw)),
				}
				for iv, raw := range part.PARaw {
					cell.PAMicros[iv] = simtime.Duration(raw).Micros()
				}
				cells[app] = cell
			}
			out.Cells[fmt.Sprintf("%g", q.Millis())] = cells
		}
		return out, nil
	}
	return plan, nil
}

func patternNames() []string {
	pats := memtrace.Patterns()
	names := make([]string, len(pats))
	for i, p := range pats {
		names[i] = p.Name
	}
	return names
}

// table1MeasureCells rebuilds a measure.Table1 from table1 cell partials
// laid out q-major: parts[qi*len(names)+pi]. Only the fields the future
// kind's parameter extraction reads (PNA, PA) are populated.
func table1MeasureCells(qs []simtime.Duration, names []string, parts []table1CellPartial) measure.Table1 {
	t1 := measure.Table1{
		Qs:    qs,
		Apps:  append([]string(nil), names...),
		Cells: make(map[simtime.Duration]map[string]measure.Penalties, len(qs)),
	}
	for qi, q := range qs {
		t1.Cells[q] = make(map[string]measure.Penalties, len(names))
		for pi, app := range names {
			part := parts[qi*len(names)+pi]
			pen := measure.Penalties{
				Measured: app,
				Q:        q,
				PNA:      simtime.Duration(part.PNARaw),
				PA:       make(map[string]simtime.Duration, len(part.PARaw)),
			}
			for iv, raw := range part.PARaw {
				pen.PA[iv] = simtime.Duration(raw)
			}
			t1.Cells[q][app] = pen
		}
	}
	return t1
}

// ---- compare (shared with future) --------------------------------------

// compareCellKey is the cache identity of one (mix, policy) comparison
// cell. The policy list and mix list are absent by design: the cell's
// seeds are parallel.CellSeed(seed, mix, rep) — policy-independent — so
// any campaign whose grid contains this coordinate produces these bytes.
type compareCellKey struct {
	Procs    int    `json:"procs"`
	Reps     int    `json:"reps"`
	AppScale int    `json:"app_scale"`
	Seed     uint64 `json:"seed"`
	Mix      int    `json:"mix"`
	Policy   string `json:"policy"`
	// Engine is the resolved tier ("sim" or "analytic"), spelled explicitly
	// even for the default: analytic estimates and simulated results must
	// never collide onto one cache entry.
	Engine string `json:"engine"`
}

// compareCellJob is one job's replication-averaged outcome within a
// compare cell; fields mirror CompareCampaignRow minus the cross-cell
// RelRT, which the merge derives.
type compareCellJob struct {
	App           string  `json:"app"`
	MeanRTSec     float64 `json:"mean_rt_sec"`
	WorkSec       float64 `json:"work_sec"`
	WasteSec      float64 `json:"waste_sec"`
	MissSec       float64 `json:"miss_sec"`
	SwitchSec     float64 `json:"switch_sec"`
	AvgAlloc      float64 `json:"avg_alloc"`
	Reallocations float64 `json:"reallocations"`
	PctAffinity   float64 `json:"pct_affinity"`
	IntervalMs    float64 `json:"realloc_interval_ms"`
}

type compareCellPartial struct {
	Jobs []compareCellJob `json:"jobs"`
}

// compareCellList builds the (mix, policy) cells for the given grid,
// mix-major. Shared by the compare and future kinds, whose policy cells
// are the same cache entries.
func compareCellList(np CampaignParams, mixNumbers []int, policies []string) ([]Cell, error) {
	eng, err := normalizeEngine(np.Engine)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, mixNum := range mixNumbers {
		for _, pol := range policies {
			mixNum, pol := mixNum, pol
			// Auto resolves here, at planning time, so the key below and the
			// Cell.Engine surfaced to clients both carry a concrete tier.
			engine := resolveCellEngine(eng, compareCellCoord(
				np.Procs, np.Replications, np.AppScale, np.Seed, mixNum, pol))
			key, err := cellKey(compareCellKey{
				Procs: np.Procs, Reps: np.Replications, AppScale: np.AppScale,
				Seed: np.Seed, Mix: mixNum, Policy: pol, Engine: engine,
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, Cell{
				ID:        fmt.Sprintf("mix=%d/policy=%s", mixNum, pol),
				KeyKind:   "cell/compare",
				KeyParams: key,
				Engine:    engine,
				run: func(ctx context.Context) (any, error) {
					o, err := np.optionsCtx(ctx)
					if err != nil {
						return nil, err
					}
					// Pin the resolved tier: the single-coordinate run below
					// must use exactly the engine hashed into this cell's key,
					// even though it re-derives the same resolution itself.
					o.Engine = engine
					mix, err := workload.MixByNumber(mixNum)
					if err != nil {
						return nil, err
					}
					// A single-coordinate ComparePoliciesCtx call: its seeds
					// are position-independent, so the summaries equal the
					// matching block of any larger grid.
					cr, err := ComparePoliciesCtx(ctx, o, []workload.Mix{mix}, []string{pol})
					if err != nil {
						return nil, err
					}
					sums := cr.Summaries[mixNum][pol]
					part := compareCellPartial{Jobs: make([]compareCellJob, len(sums))}
					for ji, js := range sums {
						part.Jobs[ji] = compareCellJob{
							App:           js.App,
							MeanRTSec:     js.MeanRT(),
							WorkSec:       js.WorkSec,
							WasteSec:      js.WasteSec,
							MissSec:       js.MissSec,
							SwitchSec:     js.SwitchSec,
							AvgAlloc:      js.AvgAlloc,
							Reallocations: js.Reallocations,
							PctAffinity:   js.PctAffinity,
							IntervalMs:    js.IntervalMs,
						}
					}
					return part, nil
				},
			})
		}
	}
	return cells, nil
}

// compareMergeRows rebuilds the compare wire rows from per-cell partials
// laid out policy-minor: parts[mi*len(policies)+pi]. RelRT is derived
// here, once per row, from the cells' replication-averaged means.
func compareMergeRows(mixNumbers []int, policies []string, parts []compareCellPartial) CompareCampaignResult {
	out := CompareCampaignResult{Policies: append([]string(nil), policies...)}
	hasBaseline := false
	for _, pol := range policies {
		if pol == "Equipartition" {
			hasBaseline = true
		}
	}
	for mi, mixNum := range mixNumbers {
		out.Mixes = append(out.Mixes, mixNum)
		var base compareCellPartial
		if hasBaseline {
			// With duplicate baseline entries all partials are identical,
			// so any one serves.
			for pi, pol := range policies {
				if pol == "Equipartition" {
					base = parts[mi*len(policies)+pi]
				}
			}
		}
		for pi, pol := range policies {
			part := parts[mi*len(policies)+pi]
			for ji, job := range part.Jobs {
				row := CompareCampaignRow{
					Mix:           mixNum,
					Policy:        pol,
					Job:           ji,
					App:           job.App,
					MeanRTSec:     job.MeanRTSec,
					WorkSec:       job.WorkSec,
					WasteSec:      job.WasteSec,
					MissSec:       job.MissSec,
					SwitchSec:     job.SwitchSec,
					AvgAlloc:      job.AvgAlloc,
					Reallocations: job.Reallocations,
					PctAffinity:   job.PctAffinity,
					IntervalMs:    job.IntervalMs,
				}
				if hasBaseline {
					row.RelRT = stats.Ratio(job.MeanRTSec, base.Jobs[ji].MeanRTSec)
				}
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out
}

func allMixNumbers() []int {
	mixes := workload.Mixes()
	out := make([]int, len(mixes))
	for i, m := range mixes {
		out[i] = m.Number
	}
	return out
}

func compareCellPlan(np CampaignParams) (*CellPlan, error) {
	if _, err := np.options(); err != nil {
		return nil, err
	}
	mixNumbers := allMixNumbers()
	if np.Mix != 0 {
		mixNumbers = []int{np.Mix}
	}
	cells, err := compareCellList(np, mixNumbers, np.Policies)
	if err != nil {
		return nil, err
	}
	plan := &CellPlan{Kind: "compare", Params: np, Cells: cells}
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		parts, err := decodeParts[compareCellPartial](raws)
		if err != nil {
			return nil, err
		}
		return compareMergeRows(mixNumbers, np.Policies, parts), nil
	}
	return plan, nil
}

// ---- future ------------------------------------------------------------

// futureCellPlan reuses the compare and table1 cell shapes: the future
// kind's simulation grid is workload.Mixes() x withBaseline(policies)
// compare cells followed by the table1 measurement cells, so a prior
// compare or table1 campaign (or another future run with an overlapping
// policy list) seeds its cache entries. The merge reconstructs the
// CompareResult and measure.Table1 that the Section-7.3 parameter
// extraction reads, then runs the analytic sweep — pure float math on
// the cells' values.
func futureCellPlan(np CampaignParams) (*CellPlan, error) {
	opts, err := np.options()
	if err != nil {
		return nil, err
	}
	cols := withBaseline(np.Policies)
	mixNumbers := allMixNumbers()
	compareCells, err := compareCellList(np, mixNumbers, cols)
	if err != nil {
		return nil, err
	}
	t1Plan, err := table1CellPlan(np)
	if err != nil {
		return nil, err
	}
	plan := &CellPlan{Kind: "future", Params: np, Cells: append(compareCells, t1Plan.Cells...)}
	nc := len(compareCells)
	qs := measure.DefaultQs()
	names := patternNames()
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		cparts, err := decodeParts[compareCellPartial](raws[:nc])
		if err != nil {
			return nil, err
		}
		tparts, err := decodeParts[table1CellPartial](raws[nc:])
		if err != nil {
			return nil, err
		}
		// Rebuild the CompareResult the scenario extraction reads. Each
		// job's RT sample holds the one value the extraction takes the
		// mean of — the cell's replication-averaged mean itself, whose
		// single-value mean is exact.
		mixes := workload.Mixes()
		cr := &CompareResult{
			Opts:      opts,
			Mixes:     mixes,
			Policies:  cols,
			Summaries: make(map[int]map[string][]JobSummary, len(mixes)),
		}
		for mi, mix := range mixes {
			cr.Summaries[mix.Number] = make(map[string][]JobSummary, len(cols))
			for ci, col := range cols {
				part := cparts[mi*len(cols)+ci]
				sums := make([]JobSummary, len(part.Jobs))
				for ji, job := range part.Jobs {
					rt := &stats.Sample{}
					rt.Add(job.MeanRTSec)
					sums[ji] = JobSummary{
						App:           job.App,
						RT:            rt,
						WorkSec:       job.WorkSec,
						WasteSec:      job.WasteSec,
						MissSec:       job.MissSec,
						SwitchSec:     job.SwitchSec,
						AvgAlloc:      job.AvgAlloc,
						Reallocations: job.Reallocations,
						PctAffinity:   job.PctAffinity,
						IntervalMs:    job.IntervalMs,
					}
				}
				cr.Summaries[mix.Number][col] = sums
			}
		}
		t1 := table1MeasureCells(qs, names, tparts)
		scen, err := FutureScenarios(cr, t1)
		if err != nil {
			return nil, err
		}
		return futureResultJSON(ctx, scen, np)
	}
	return plan, nil
}

// ---- futuresim ---------------------------------------------------------

// futureSimCellKey is the cache identity of one (product, policy) point
// of the simulated-future sweep. Replication seeds are shared across the
// whole grid (CellSeed of the replication alone), so the product and
// policy lists are absent and supersets reuse points.
type futureSimCellKey struct {
	Procs    int     `json:"procs"`
	Reps     int     `json:"reps"`
	AppScale int     `json:"app_scale"`
	Seed     uint64  `json:"seed"`
	Mix      int     `json:"mix"`
	Product  float64 `json:"product"`
	Policy   string  `json:"policy"`
	// Engine is the resolved tier ("sim" or "analytic"); see compareCellKey.
	Engine string `json:"engine"`
}

// futureSimCellPartial is one point's replication-mean response time;
// the merge divides policy means by the Equipartition mean.
type futureSimCellPartial struct {
	MeanRTSec float64 `json:"mean_rt_sec"`
}

// futureSimCellPlan re-runs the scheduling simulation on scaled machines
// (speed = cache = √product, the Figure 8-13 axis) — a validation the
// paper could not perform, since its future machines did not exist. The
// paper's analytic model assumes future applications grow into their
// caches (its P^NA × √cache term); the simulated applications keep 1991
// footprints, so the simulation brackets the model from the optimistic
// side: its relative response times should rise no faster than the
// model's. Replication seeds are shared across products and policies —
// parallel.CellSeed of the replication alone — so every point of every
// curve observes the same workload draws.
func futureSimCellPlan(np CampaignParams) (*CellPlan, error) {
	if _, err := np.options(); err != nil {
		return nil, err
	}
	eng, err := normalizeEngine(np.Engine)
	if err != nil {
		return nil, err
	}
	// The baseline joins the policy axis as column zero, unconditionally.
	cols := append([]string{"Equipartition"}, np.Policies...)
	plan := &CellPlan{Kind: "futuresim", Params: np}
	for _, prod := range np.Products {
		for _, col := range cols {
			prod, col := prod, col
			engine := resolveCellEngine(eng, futureSimCellCoord(
				np.Procs, np.Replications, np.AppScale, np.Seed, np.Mix, prod, col))
			key, err := cellKey(futureSimCellKey{
				Procs: np.Procs, Reps: np.Replications, AppScale: np.AppScale,
				Seed: np.Seed, Mix: np.Mix, Product: prod, Policy: col, Engine: engine,
			})
			if err != nil {
				return nil, err
			}
			plan.Cells = append(plan.Cells, Cell{
				ID:        fmt.Sprintf("product=%g/policy=%s", prod, col),
				KeyKind:   "cell/futuresim",
				KeyParams: key,
				Engine:    engine,
				run: func(ctx context.Context) (any, error) {
					o, err := np.optionsCtx(ctx)
					if err != nil {
						return nil, err
					}
					mix, err := workload.MixByNumber(np.Mix)
					if err != nil {
						return nil, err
					}
					mc, err := futureSimMachine(o.Machine, prod)
					if err != nil {
						return nil, err
					}
					if _, ok := core.ByName(col); !ok {
						return nil, fmt.Errorf("experiments: unknown policy %q", col)
					}
					R := o.Replications
					rts := make([]float64, R)
					simStats := make([]obs.SimStats, R)
					err = parallel.ForEach(ctx, o.Workers, R, func(ctx context.Context, rep int) error {
						seed := parallel.CellSeed(o.Seed, uint64(rep))
						pol, _ := core.ByName(col)
						r, err := runCell(engine, sched.Config{
							Machine: mc,
							Policy:  pol,
							Apps:    o.apps(mix, seed),
							Seed:    seed,
						})
						if err != nil {
							return fmt.Errorf("experiments: product %v policy %s: %w", prod, col, err)
						}
						rts[rep] = r.MeanResponse()
						simStats[rep] = r.Stats
						return nil
					})
					if err != nil {
						return nil, err
					}
					if o.Stats != nil {
						parallel.Fold(simStats, func(_ int, s obs.SimStats) {
							o.Stats.Add(col, s)
						})
					}
					var mean float64
					for rep := 0; rep < R; rep++ {
						mean += rts[rep] / float64(R)
					}
					return futureSimCellPartial{MeanRTSec: mean}, nil
				},
			})
		}
	}
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		parts, err := decodeParts[futureSimCellPartial](raws)
		if err != nil {
			return nil, err
		}
		out := FutureSimCampaignResult{Mix: np.Mix, Policies: append([]string(nil), np.Policies...)}
		for prodIdx, prod := range np.Products {
			base := parts[prodIdx*len(cols)].MeanRTSec
			pt := FutureSimCampaignPoint{Product: prod, SimRel: make(map[string]float64)}
			for pi, pol := range np.Policies {
				pt.SimRel[pol] = parts[prodIdx*len(cols)+pi+1].MeanRTSec / base
			}
			out.Points = append(out.Points, pt)
		}
		return out, nil
	}
	return plan, nil
}

// ---- relatedwork -------------------------------------------------------

// relatedWorkCellKey is the cache identity of one Section-8 policy row
// (the kind's mix is fixed at #5).
type relatedWorkCellKey struct {
	Procs    int    `json:"procs"`
	Reps     int    `json:"reps"`
	AppScale int    `json:"app_scale"`
	Seed     uint64 `json:"seed"`
	Policy   string `json:"policy"`
}

// relatedWorkCellPartial is one policy's aggregated row; the merge
// derives the cross-policy gain contrasts.
type relatedWorkCellPartial struct {
	MeanRTSec     float64 `json:"mean_rt_sec"`
	MissSec       float64 `json:"miss_sec"`
	Reallocations int     `json:"reallocations"`
	PctAffinity   float64 `json:"pct_affinity"`
}

// relatedWorkCellPlan runs workload mix #5 under four policies — time
// sharing with and without affinity, and space sharing with and without
// affinity — one cell per policy, and the merge measures how much
// affinity helps in each domain. The paper's Section 8 explains why
// time-sharing studies found affinity important while this paper did
// not; this experiment demonstrates the mechanism directly.
func relatedWorkCellPlan(np CampaignParams) (*CellPlan, error) {
	if _, err := np.options(); err != nil {
		return nil, err
	}
	policies := relatedWorkPolicies()
	plan := &CellPlan{Kind: "relatedwork", Params: np}
	for _, polName := range policies {
		polName := polName
		key, err := cellKey(relatedWorkCellKey{
			Procs: np.Procs, Reps: np.Replications, AppScale: np.AppScale,
			Seed: np.Seed, Policy: polName,
		})
		if err != nil {
			return nil, err
		}
		plan.Cells = append(plan.Cells, Cell{
			ID:        "policy=" + polName,
			KeyKind:   "cell/relatedwork",
			KeyParams: key,
			run: func(ctx context.Context) (any, error) {
				o, err := np.optionsCtx(ctx)
				if err != nil {
					return nil, err
				}
				mix, err := workload.MixByNumber(5)
				if err != nil {
					return nil, err
				}
				if _, ok := core.ByName(polName); !ok {
					return nil, fmt.Errorf("experiments: unknown policy %q", polName)
				}
				R := o.Replications
				runs := make([]sched.Result, R)
				err = parallel.ForEach(ctx, o.Workers, R, func(ctx context.Context, rep int) error {
					seed := parallel.CellSeed(o.Seed, uint64(rep))
					pol, _ := core.ByName(polName)
					r, err := runSim(sched.Config{
						Machine: o.Machine,
						Policy:  pol,
						Apps:    o.apps(mix, seed),
						Seed:    seed,
					})
					if err != nil {
						return err
					}
					runs[rep] = r
					return nil
				})
				if err != nil {
					return nil, err
				}
				if o.Stats != nil {
					parallel.Fold(runs, func(_ int, r sched.Result) {
						o.Stats.Add(polName, r.Stats)
					})
				}
				row := relatedWorkRowFrom(polName, runs)
				return relatedWorkCellPartial{
					MeanRTSec:     row.MeanRT,
					MissSec:       row.MissSec,
					Reallocations: row.Reallocations,
					PctAffinity:   row.PctAffinity,
				}, nil
			},
		})
	}
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		parts, err := decodeParts[relatedWorkCellPartial](raws)
		if err != nil {
			return nil, err
		}
		rows := make([]RelatedWorkRow, len(parts))
		for i, part := range parts {
			rows[i] = RelatedWorkRow{
				Policy:        policies[i],
				MeanRT:        part.MeanRTSec,
				MissSec:       part.MissSec,
				Reallocations: part.Reallocations,
				PctAffinity:   part.PctAffinity,
			}
		}
		return RelatedWorkCampaignResult{Result: relatedWorkDerive(rows)}, nil
	}
	return plan, nil
}
