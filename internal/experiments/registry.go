package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// CampaignParams is the wire-level parameterization of one campaign: the
// subset of Options a service client may set, plus the per-kind knobs of
// the individual drivers. The zero value of every field means "use the
// kind's default", so a minimal request like {"kind":"table1"} is valid.
//
// Params are normalized (all defaults made explicit, irrelevant fields
// zeroed) before being hashed into a result-cache key, so two requests
// that differ only in spelling — {} versus {"seed":1} — share a cache
// entry. Workers is always excluded from the key: campaign results are
// bitwise identical at every worker count (the internal/parallel
// contract), so concurrency must not fork the cache.
type CampaignParams struct {
	// Fast selects the scaled-down FastOptions preset. Normalization folds
	// its effects into Replications/BudgetSec/AppScale and clears it.
	Fast bool `json:"fast,omitempty"`
	// Procs is the simulated machine's processor count (default 16).
	Procs int `json:"procs,omitempty"`
	// Replications per (mix, policy) cell (default 5; 2 under Fast).
	Replications int `json:"reps,omitempty"`
	// BudgetSec is the Table-1 per-run compute budget in seconds
	// (default 20; 4 under Fast). Used by table1 and future.
	BudgetSec float64 `json:"budget_sec,omitempty"`
	// AppScale shrinks applications for quick runs (default 1; 4 under
	// Fast).
	AppScale int `json:"app_scale,omitempty"`
	// Mix restricts compare to one workload mix (1-6, 0 = all six) and
	// selects the simulated mix for futuresim (default 5).
	Mix int `json:"mix,omitempty"`
	// Policies overrides the kind's default policy list, where the kind
	// has one (compare, future, futuresim).
	Policies []string `json:"policies,omitempty"`
	// MaxProduct bounds the future sweep's speed×cache axis (default 4096).
	MaxProduct float64 `json:"max_product,omitempty"`
	// Products lists the speed×cache points futuresim simulates
	// (default 1, 16, 64, 256, 1024).
	Products []float64 `json:"products,omitempty"`
	// Seed is the campaign root seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Engine selects the per-cell execution tier of the grid-shaped kinds
	// (compare, futuresim, and the comparison half of future): EngineSim,
	// EngineAnalytic, or EngineAuto; empty means EngineSim. Kinds without a
	// simulation grid always simulate and reject the other tiers. Engine is
	// part of the cache identity: analytic estimates and simulated results
	// never share a cache entry.
	Engine string `json:"engine,omitempty"`
	// Workers bounds concurrent simulation cells (0 = all CPUs). Never
	// part of the cache key.
	Workers int `json:"workers,omitempty"`
}

// options folds the params into an Options value. Zero means default;
// negative values are rejected rather than silently defaulted, each named
// by its wire field path.
func (p CampaignParams) options() (Options, error) {
	switch {
	case p.Procs < 0:
		return Options{}, &ParamError{Field: "params.procs", Msg: "must be >= 0"}
	case p.Replications < 0:
		return Options{}, &ParamError{Field: "params.reps", Msg: "must be >= 0"}
	case p.BudgetSec < 0:
		return Options{}, &ParamError{Field: "params.budget_sec", Msg: "must be >= 0"}
	case p.AppScale < 0:
		return Options{}, &ParamError{Field: "params.app_scale", Msg: "must be >= 0"}
	case p.Workers < 0:
		return Options{}, &ParamError{Field: "params.workers", Msg: "must be >= 0"}
	}
	if _, err := normalizeEngine(p.Engine); err != nil {
		return Options{}, &ParamError{Field: "params.engine", Msg: err.Error()}
	}
	o := DefaultOptions()
	if p.Fast {
		o = FastOptions()
	}
	if p.Procs > 0 {
		o.Machine.Processors = p.Procs
	}
	if p.Replications > 0 {
		o.Replications = p.Replications
	}
	if p.BudgetSec > 0 {
		o.MeasureBudget = simtime.Seconds(p.BudgetSec)
	}
	if p.AppScale > 0 {
		o.AppScale = p.AppScale
	}
	if p.Seed != 0 {
		o.Seed = p.Seed
	}
	o.Workers = p.Workers
	o.Engine = p.Engine
	if err := o.Validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// Params returns the campaign parameters under which Campaign.Run runs
// with o's processor count, replications, measurement budget, app scale,
// seed, workers and engine — the one mapping from a CLI's options to a
// campaign. A zero Seed maps to the default seed 1. The other Options
// fields (the rest of Machine, ExtractionQ) have no wire form and take
// their DefaultOptions values in a campaign; Stats rides in the context
// (runCampaign).
func (o Options) Params() CampaignParams {
	return CampaignParams{
		Procs:        o.Machine.Processors,
		Replications: o.Replications,
		BudgetSec:    o.MeasureBudget.SecondsF(),
		AppScale:     o.AppScale,
		Seed:         o.Seed,
		Workers:      o.Workers,
		Engine:       o.Engine,
	}
}

// runCampaign runs the campaign kind with params p, derived from opts,
// folding its simulation counters into opts.Stats when that is set. It
// validates opts as given, and refuses a machine the campaign would not
// run, rather than let the mapping drop them silently.
func runCampaign(ctx context.Context, kind string, opts Options, p CampaignParams) (any, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if back, err := p.options(); err != nil {
		return nil, err
	} else if back.Machine != opts.Machine {
		return nil, fmt.Errorf("experiments: %s campaigns run the default machine; only its processor count can change", kind)
	}
	camp, ok := CampaignByKind(kind)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown campaign kind %q", kind)
	}
	return camp.Run(obs.WithCollector(ctx, opts.Stats), p)
}

// optionsCtx is options plus the context's stats collector (if any): a
// caller that wrapped ctx with obs.WithCollector — the daemon does, per
// job — gets per-run simulation stats folded into it as the campaign
// executes. The collector rides out-of-band: it is not a params field,
// so it can never reach a cache key or a result body.
func (p CampaignParams) optionsCtx(ctx context.Context) (Options, error) {
	o, err := p.options()
	if err != nil {
		return Options{}, err
	}
	o.Stats = obs.CollectorFrom(ctx)
	return o, nil
}

// Campaign is one registered campaign kind: a name and a human
// description. Every experiment the repo can run is reachable through
// this one interface; the service, and any future batch or queue front
// end, needs no per-kind code.
type Campaign struct {
	// Kind is the wire name ("table1", "compare", ...).
	Kind string
	// Description is a one-line summary for listings.
	Description string
}

// Run normalizes and validates p, then executes the campaign as its cell
// plan — the same Cells → execute → Merge path affinityd serves, with no
// cache in between. Cells run on p.Workers workers; each partial is
// encoded with report.CanonicalJSON and the plan's merge reassembles the
// result, a JSON-marshalable value whose encoding is deterministic under
// report.CanonicalJSON. A cancelled ctx stops scheduling new cells
// promptly and returns ctx's error.
//
// If ctx carries an obs collector, each cell folds its stats into a
// private one, and those fold into the caller's in cell order after the
// parallel phase, so the totals are identical at every worker count.
func (c Campaign) Run(ctx context.Context, p CampaignParams) (any, error) {
	plan, err := Cells(c.Kind, p)
	if err != nil {
		return nil, err
	}
	collector := obs.CollectorFrom(ctx)
	var cellStats []*obs.CampaignStats
	if collector != nil {
		cellStats = make([]*obs.CampaignStats, len(plan.Cells))
	}
	partials := make([][]byte, len(plan.Cells))
	err = parallel.ForEach(ctx, plan.Params.Workers, len(plan.Cells), func(ctx context.Context, i int) error {
		if cellStats != nil {
			cellStats[i] = obs.NewCampaignStats()
			ctx = obs.WithCollector(ctx, cellStats[i])
		}
		res, err := plan.Cells[i].Run(ctx)
		if err != nil {
			return err
		}
		partials[i], err = report.CanonicalJSON(res)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, cs := range cellStats {
		collector.Merge(cs)
	}
	return plan.Merge(ctx, partials)
}

// Normalize returns p with every default made explicit and every field
// the kind does not consume zeroed, validating the result. Normalized
// params are the canonical identity of a campaign: hash them (minus
// Workers, which Normalize preserves but cache keys must zero) and two
// semantically identical requests collide onto one cache entry.
func (c Campaign) Normalize(p CampaignParams) (CampaignParams, error) {
	o, err := p.options()
	if err != nil {
		return CampaignParams{}, err
	}
	n := CampaignParams{
		Procs:        o.Machine.Processors,
		Replications: o.Replications,
		AppScale:     o.AppScale,
		Seed:         o.Seed,
		Workers:      p.Workers,
	}
	// The engine tier only exists on the kinds with a simulation grid; the
	// others always simulate and must not silently accept (and then ignore)
	// a request for the analytic tier. ValidateEngine is the single gate —
	// the CLIs call it too, so a flag and a request body fail identically.
	engine := o.engine()
	if err := ValidateEngine(c.Kind, engine); err != nil {
		return CampaignParams{}, err
	}
	switch c.Kind {
	case "compare", "future", "futuresim":
		n.Engine = engine
	}
	// Per-kind knobs: only the fields the kind's driver reads survive.
	switch c.Kind {
	case "table1":
		n.BudgetSec = o.MeasureBudget.SecondsF()
		n.Replications = 0 // table1 has no replication axis
		n.AppScale = 0     // measurement patterns are not app-scaled
	case "characterize":
	case "relatedwork":
	case "compare":
		if p.Mix != 0 {
			if _, err := workload.MixByNumber(p.Mix); err != nil {
				return CampaignParams{}, &ParamError{Field: "params.mix", Msg: err.Error()}
			}
			n.Mix = p.Mix
		}
		n.Policies = p.Policies
		if len(n.Policies) == 0 {
			n.Policies = defaultComparePolicies()
		}
	case "future":
		n.BudgetSec = o.MeasureBudget.SecondsF()
		n.Policies = p.Policies
		if len(n.Policies) == 0 {
			n.Policies = defaultDynamicPolicies()
		}
		n.MaxProduct = p.MaxProduct
		if n.MaxProduct == 0 {
			n.MaxProduct = 4096
		}
		if n.MaxProduct < 1 {
			return CampaignParams{}, &ParamError{Field: "params.max_product",
				Msg: fmt.Sprintf("must be >= 1, got %v", n.MaxProduct)}
		}
	case "futuresim":
		n.Mix = p.Mix
		if n.Mix == 0 {
			n.Mix = 5
		}
		if _, err := workload.MixByNumber(n.Mix); err != nil {
			return CampaignParams{}, &ParamError{Field: "params.mix", Msg: err.Error()}
		}
		n.Policies = p.Policies
		if len(n.Policies) == 0 {
			n.Policies = defaultDynamicPolicies()
		}
		n.Products = p.Products
		if len(n.Products) == 0 {
			n.Products = []float64{1, 16, 64, 256, 1024}
		}
		for i, prod := range n.Products {
			if prod < 1 {
				return CampaignParams{}, &ParamError{Field: fmt.Sprintf("params.products[%d]", i),
					Msg: fmt.Sprintf("product %v below 1", prod)}
			}
		}
	default:
		return CampaignParams{}, fmt.Errorf("experiments: unknown campaign kind %q", c.Kind)
	}
	for i, pol := range n.Policies {
		if _, ok := core.ByName(pol); !ok {
			return CampaignParams{}, &ParamError{Field: fmt.Sprintf("params.policies[%d]", i),
				Msg: fmt.Sprintf("unknown policy %q", pol)}
		}
	}
	return n, nil
}

func defaultComparePolicies() []string {
	return []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri"}
}

func defaultDynamicPolicies() []string {
	return []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}
}

// campaignRegistry lists every campaign kind, in the order listings show
// them (paper order).
var campaignRegistry = []Campaign{
	{
		Kind:        "characterize",
		Description: "Figures 2-4: per-application parallelism characteristics, measured in isolation",
	},
	{
		Kind:        "table1",
		Description: "Table 1: per-switch cache penalties P^A and P^NA by application and rescheduling interval",
	},
	{
		Kind:        "compare",
		Description: "Figures 5-6, Tables 3-4: policy comparison across the six workload mixes",
	},
	{
		Kind:        "future",
		Description: "Figures 8-13: analytic model sweep over future speed*cache products",
	},
	{
		Kind:        "futuresim",
		Description: "Section 7 validation: directly simulated scaled machines vs the analytic model",
	},
	{
		Kind:        "relatedwork",
		Description: "Section 8: affinity gains under time sharing vs space sharing",
	},
}

// Campaigns returns the registered campaigns in listing order.
func Campaigns() []Campaign {
	out := make([]Campaign, len(campaignRegistry))
	copy(out, campaignRegistry)
	return out
}

// CampaignByKind looks a campaign up by its wire name.
func CampaignByKind(kind string) (Campaign, bool) {
	for _, c := range campaignRegistry {
		if c.Kind == kind {
			return c, true
		}
	}
	return Campaign{}, false
}

// ---- JSON result shapes ------------------------------------------------
//
// Campaign results are explicit wire structs rather than the exhibits'
// views (CompareResult, measure.Table1): the views carry simulation-unit
// fields and map keys that are not strings. The wire structs hold only
// strings, numbers, slices and string-keyed maps, so report.CanonicalJSON
// over them is total and byte-stable.

// Table1CampaignResult is the table1 kind's result.
type Table1CampaignResult struct {
	// QsMs lists the rescheduling intervals in milliseconds, ascending.
	QsMs []float64 `json:"qs_ms"`
	// Apps lists the measured applications in protocol order.
	Apps []string `json:"apps"`
	// Cells maps Q (formatted as in QsMs, e.g. "400") then measured
	// application to its penalties.
	Cells map[string]map[string]Table1CampaignCell `json:"cells"`
}

// Table1CampaignCell is one (Q, application) cell: penalties in
// microseconds per switch, as in the paper's Table 1.
type Table1CampaignCell struct {
	PNAMicros float64            `json:"pna_us"`
	PAMicros  map[string]float64 `json:"pa_us"`
}

// CharacterizeCampaignResult is the characterize kind's result.
type CharacterizeCampaignResult struct {
	Apps []AppCharacter `json:"apps"`
}

// CompareCampaignRow is one (mix, policy, job) outcome of the compare
// kind, in replication-averaged units.
type CompareCampaignRow struct {
	Mix    int    `json:"mix"`
	Policy string `json:"policy"`
	Job    int    `json:"job"`
	// RelRT is MeanRTSec divided by the same job's Equipartition mean;
	// 0 when Equipartition is not in the policy list.
	RelRT float64 `json:"rel_rt,omitempty"`
	// JobSummary is the job's compare cell partial; its fields encode
	// inline.
	JobSummary
}

// CompareCampaignResult is the compare kind's result: rows ordered by
// (mix, policy, job) with policies in request order.
type CompareCampaignResult struct {
	Mixes    []int                `json:"mixes"`
	Policies []string             `json:"policies"`
	Rows     []CompareCampaignRow `json:"rows"`
}

// FutureCampaignSweep is one policy's model sweep within one scenario.
type FutureCampaignSweep struct {
	Policy string `json:"policy"`
	// RelRT[i] is the predicted relative response time at Products[i].
	RelRT []float64 `json:"rel_rt"`
	// Crossover is the speed×cache product at which the policy's relative
	// RT reaches 1.0 (0 = never within the sweep).
	Crossover float64 `json:"crossover"`
}

// FutureCampaignScenario is one (mix, application) scenario of the future
// kind.
type FutureCampaignScenario struct {
	Mix      int                   `json:"mix"`
	App      string                `json:"app"`
	Policies []FutureCampaignSweep `json:"policies"`
}

// FutureCampaignResult is the future kind's result: the analytic model's
// relative response times over the product axis, per scenario.
type FutureCampaignResult struct {
	Products  []float64                `json:"products"`
	Scenarios []FutureCampaignScenario `json:"scenarios"`
}

// withBaseline returns policies with Equipartition prepended unless it is
// already present: the future model needs the baseline's summaries, but
// listing it twice would simulate its cells — the most expensive in the
// sweep — twice over.
func withBaseline(policies []string) []string {
	for _, pol := range policies {
		if pol == "Equipartition" {
			return policies
		}
	}
	return append([]string{"Equipartition"}, policies...)
}

// futureResultJSON sweeps every scenario over the product axis into the
// wire shape, scenarios sorted by (mix, app).
func futureResultJSON(ctx context.Context, scen map[ScenarioKey]model.Scenario, p CampaignParams) (FutureCampaignResult, error) {
	products := model.Products(p.MaxProduct, 2)
	keys := make([]ScenarioKey, 0, len(scen))
	for k := range scen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Mix != keys[j].Mix {
			return keys[i].Mix < keys[j].Mix
		}
		return keys[i].App < keys[j].App
	})
	out := FutureCampaignResult{Products: products}
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return FutureCampaignResult{}, err
		}
		sc := scen[k]
		entry := FutureCampaignScenario{Mix: k.Mix, App: k.App}
		for _, pol := range p.Policies {
			if _, ok := sc.Policies[pol]; !ok {
				continue
			}
			ys, err := sc.SweepProduct(pol, products)
			if err != nil {
				return FutureCampaignResult{}, err
			}
			cross, err := sc.Crossover(pol, products)
			if err != nil {
				return FutureCampaignResult{}, err
			}
			entry.Policies = append(entry.Policies, FutureCampaignSweep{
				Policy: pol, RelRT: ys, Crossover: cross,
			})
		}
		out.Scenarios = append(out.Scenarios, entry)
	}
	return out, nil
}

// FutureSimCampaignPoint is one simulated product point.
type FutureSimCampaignPoint struct {
	Product float64 `json:"product"`
	// SimRel maps policy to the simulated relative response time.
	SimRel map[string]float64 `json:"sim_rel"`
}

// FutureSimCampaignResult is the futuresim kind's result.
type FutureSimCampaignResult struct {
	Mix      int                      `json:"mix"`
	Policies []string                 `json:"policies"`
	Points   []FutureSimCampaignPoint `json:"points"`
}

// RelatedWorkCampaignResult is the relatedwork kind's result; the inner
// type already exposes only JSON-safe fields.
type RelatedWorkCampaignResult struct {
	Result *RelatedWorkResult `json:"result"`
}
