package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/experiments"
)

// request is one campaign submission, encoded exactly as the daemon's
// POST /v1/campaigns body.
type request struct {
	Kind   string                     `json:"kind"`
	Params experiments.CampaignParams `json:"params"`
}

// body is the request's wire encoding. encoding/json writes struct
// fields in declaration order, so equal requests encode to equal bytes.
func (r request) body() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode request: %v", err))
	}
	return b
}

// rng is SplitMix64: tiny, fast, and fixed forever, so a seed names the
// same request sequence on every Go version.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*31 + uint64(c)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// seed draws a campaign seed: nonzero and below 2^52, so it survives any
// JSON decoder that reads numbers as float64.
func (r *rng) seed() uint64 { return r.next()>>12 + 1 }

// subset picks between lo and hi items of from, keeping their order.
func (r *rng) subset(from []string, lo, hi int) []string {
	n := lo + r.intn(hi-lo+1)
	idx := make([]bool, len(from))
	for picked := 0; picked < n; {
		i := r.intn(len(from))
		if !idx[i] {
			idx[i] = true
			picked++
		}
	}
	out := make([]string, 0, n)
	for i, ok := range idx {
		if ok {
			out = append(out, from[i])
		}
	}
	return out
}

// simPolicies are the policies the sim-engine workloads use.
// Dyn-Aff-Delay is left out: at HEAD the simulator deadlocks on some
// seeds under it ("sched: deadlock — job ... never completed"), so every
// run would report failures that no service or engine change can fix.
// The traced run counts that defect instead (sched.deadlock_cells).
var simPolicies = []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-NoPri"}

// simPairs are the six pairs of simPolicies, which compare-cold cycles
// through.
var simPairs = func() [][]string {
	var out [][]string
	for i := range simPolicies {
		for j := i + 1; j < len(simPolicies); j++ {
			out = append(out, []string{simPolicies[i], simPolicies[j]})
		}
	}
	return out
}()

// allPolicies are the compare policies; the analytic tier handles all.
var allPolicies = []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri"}

// dynamicPolicies are futuresim's policies.
var dynamicPolicies = []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}

var futureProducts = []float64{1, 16, 64, 256, 1024}

// workload describes one benchmark traffic mix and the deployment that
// serves it.
type workload struct {
	name string
	why  string
	// fleet runs a coordinator plus two -join workers instead of one
	// standalone daemon.
	fleet bool
	// cacheMB is each daemon's -cache-mb (0 = the daemon default).
	cacheMB int
	// restart kill -9s and reboots the daemon on its store after the
	// warm-up traffic, so timed reads start from disk.
	restart bool
	// checkAll compares every response with its reference; otherwise a
	// seeded sample of responses is checked after the timed phase.
	checkAll bool
	// traced is how many requests of the sequence the traced run
	// replays: enough for a few seconds of profile samples.
	traced int
	// warm returns the set-up traffic (the working set), or nil.
	warm func(r *rng) []request
	// next draws timed request i; ws is the working set. Request shapes
	// cycle with i, so every run of every seed sends the same mix of
	// shapes and only the draws within a shape vary.
	next func(r *rng, ws []request, i int) request
}

var workloads = []*workload{
	{
		name:   "compare-cold",
		traced: 100,
		why:    "fresh-seed sim compare campaigns over all six mixes: every cell misses, so the sched/bus/footprint/eventq/alloc engine does the work",
		next: func(r *rng, _ []request, i int) request {
			return request{Kind: "compare", Params: experiments.CampaignParams{
				Fast: true, Replications: 1, Seed: r.seed(), Policies: simPairs[i%len(simPairs)],
			}}
		},
	},
	{
		name:   "table1-cold",
		traced: 100,
		why:    "fresh-seed table1 campaigns: the exact cache, memtrace and measure path does the work while bus and footprint idle",
		next: func(r *rng, _ []request, _ int) request {
			return request{Kind: "table1", Params: experiments.CampaignParams{
				Fast: true, BudgetSec: 0.4, Seed: r.seed(),
			}}
		},
	},
	{
		name:     "warm-overlap",
		why:      "repeats, re-sliced grids and a few fresh analytic cells over a restarted store larger than memory: tiers, merge and encode do the work",
		cacheMB:  1,
		restart:  true,
		checkAll: true,
		traced:   1000, // its requests take a few milliseconds
		warm:     warmOverlapSet,
		next:     warmOverlapNext,
	},
	{
		name:   "fleet-analytic",
		traced: 200,
		why:    "fresh-seed analytic campaigns through a coordinator and two authenticated workers: placement, HMAC, dispatch and HTTP do the work",
		fleet:  true,
		next: func(r *rng, _ []request, i int) request {
			p := experiments.CampaignParams{Fast: true, Seed: r.seed(), Engine: experiments.EngineAnalytic}
			if i%2 == 0 {
				n := 2 + (i/2)%3 // 2, 3 or 4 policies, all six mixes
				p.Policies = r.subset(allPolicies, n, n)
				return request{Kind: "compare", Params: p}
			}
			n := 2 + (i/12)%2 // 2 or 3 policies on each mix in turn
			p.Mix = 1 + (i/2)%6
			p.Policies = r.subset(dynamicPolicies, n, n)
			return request{Kind: "futuresim", Params: p}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// warmPoolSeeds is how many campaign seeds the warm-overlap working set
// spans. With -cache-mb 1 its bodies (~20 KiB each) and cells (~0.5 KiB
// each, 30 per seed) each exceed their memory tier, so timed reads come
// from disk as well as memory.
const warmPoolSeeds = 80

// warmOverlapSet is the warm-overlap working set: an all-mix analytic
// compare campaign per pool seed, an analytic futuresim campaign on every
// fifth, and one group of fast sim campaigns (compare, table1, future)
// that share cells across kinds.
func warmOverlapSet(r *rng) []request {
	var ws []request
	for i := 0; i < warmPoolSeeds; i++ {
		s := r.seed()
		ws = append(ws, request{Kind: "compare", Params: experiments.CampaignParams{
			Fast: true, Seed: s, Engine: experiments.EngineAnalytic,
		}})
		if i%5 == 0 {
			ws = append(ws, request{Kind: "futuresim", Params: experiments.CampaignParams{
				Fast: true, Seed: s, Engine: experiments.EngineAnalytic,
			}})
		}
	}
	s := r.seed()
	pols := []string{"Dynamic", "Dyn-Aff"}
	ws = append(ws,
		request{Kind: "compare", Params: experiments.CampaignParams{
			Fast: true, Replications: 1, Seed: s, Mix: 1 + r.intn(6), Policies: pols,
		}},
		request{Kind: "table1", Params: experiments.CampaignParams{Fast: true, BudgetSec: 0.4, Seed: s}},
		request{Kind: "future", Params: experiments.CampaignParams{
			Fast: true, Replications: 1, BudgetSec: 0.4, Seed: s, Policies: pols,
		}},
	)
	return ws
}

// warmOverlapNext draws timed warm-overlap request i. Of every 20: 5
// exact repeats of the working set (body tier); 12 re-sliced product or
// policy lists over working-set seeds (cell tiers, then Merge and
// encode), 2 of them futuresim and 10 compare; 3 fresh-seed analytic
// campaigns (execute and Put). Every compare covers all six mixes, so a
// request does milliseconds of tier, merge and encode work rather than
// microseconds, and p50 and p90 fall inside the re-slice and fresh
// classes rather than on a boundary between classes.
func warmOverlapNext(r *rng, ws []request, i int) request {
	switch slot := i % 20; {
	case slot < 5:
		return ws[r.intn(len(ws))]
	case slot < 7:
		base := pick(r, ws, "futuresim")
		var products []float64
		for _, p := range futureProducts {
			if r.intn(2) == 0 {
				products = append(products, p)
			}
		}
		if len(products) == 0 {
			products = futureProducts[:1]
		}
		return request{Kind: "futuresim", Params: experiments.CampaignParams{
			Fast: true, Seed: base.Params.Seed, Engine: experiments.EngineAnalytic,
			Products: products, Policies: r.subset(dynamicPolicies, 1, 3),
		}}
	case slot < 17:
		base := pick(r, ws, "compare")
		return request{Kind: "compare", Params: experiments.CampaignParams{
			Fast: true, Seed: base.Params.Seed, Engine: experiments.EngineAnalytic,
			Policies: r.subset(allPolicies, 2, 4),
		}}
	default:
		return request{Kind: "compare", Params: experiments.CampaignParams{
			Fast: true, Seed: r.seed(), Engine: experiments.EngineAnalytic,
			Policies: r.subset(allPolicies, 2, 2),
		}}
	}
}

// pick draws a working-set entry of the given kind on the analytic tier.
func pick(r *rng, ws []request, kind string) request {
	for {
		if b := ws[r.intn(len(ws))]; b.Kind == kind && b.Params.Engine == experiments.EngineAnalytic {
			return b
		}
	}
}

// generator yields a workload's deterministic request sequence. The
// working set and the timed stream draw from separate streams, so the
// same seed gives the same working set and the same timed sequence.
type generator struct {
	w    *workload
	r    *rng
	ws   []request
	sent int
}

func newGenerator(w *workload, seed uint64) *generator {
	g := &generator{w: w, r: newRNG(seed, w.name+"/timed")}
	if w.warm != nil {
		g.ws = w.warm(newRNG(seed, w.name+"/warm"))
	}
	return g
}

func (g *generator) next() request {
	g.sent++
	return g.w.next(g.r, g.ws, g.sent-1)
}
