package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/workload"
)

// BenchmarkSchedRunAllocs measures the allocation profile of one
// scheduling run (mix #5 at test scale) — the unit of work every campaign
// cell repeats Replications times.
func BenchmarkSchedRunAllocs(b *testing.B) {
	opts := experiments.FastOptions()
	mix5, _ := workload.MixByNumber(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, _ := core.ByName("Dyn-Aff")
		apps := mix5.Apps(opts.Seed)
		_, err := sched.Run(sched.Config{
			Machine: opts.Machine,
			Policy:  pol,
			Apps:    apps,
			Seed:    opts.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedRunnerSteadyState measures the steady-state allocation
// profile of a reused Runner: the same cell as BenchmarkSchedRunAllocs but
// with the engine substrate warmed by a first run. This is the per-run cost
// a campaign worker actually pays, and the number the bench-check gate holds
// near zero.
func BenchmarkSchedRunnerSteadyState(b *testing.B) {
	opts := experiments.FastOptions()
	mix5, _ := workload.MixByNumber(5)
	apps := mix5.Apps(opts.Seed)
	cfg := sched.Config{
		Machine: opts.Machine,
		Apps:    apps,
		Seed:    opts.Seed,
	}
	r := sched.NewRunner()
	run := func() {
		// Policies carry per-run state and are rebuilt each run, exactly as
		// the campaign workers do.
		pol, _ := core.ByName("Dyn-Aff")
		cfg.Policy = pol
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the substrate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkCompareCellAllocs measures one full ComparePoliciesCtx cell
// (one mix, one policy, FastOptions replications), run sequentially.
func BenchmarkCompareCellAllocs(b *testing.B) {
	opts := experiments.FastOptions()
	opts.Workers = 1
	mix5, _ := workload.MixByNumber(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComparePoliciesCtx(context.Background(), opts, []workload.Mix{mix5}, []string{"Dyn-Aff"})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComparePolicies runs the full test-scale comparison campaign
// (6 mixes x 4 policies x 2 replications = 48 simulation cells) with
// Workers = GOMAXPROCS, so `go test -bench=ComparePolicies -cpu=1,4,8`
// sweeps the worker-pool width. The campaign's output is bitwise identical
// at every width; only the wall clock changes.
func BenchmarkComparePolicies(b *testing.B) {
	opts := experiments.FastOptions()
	policies := []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := experiments.ComparePoliciesCtx(context.Background(), opts, workload.Mixes(), policies)
		if err != nil {
			b.Fatal(err)
		}
	}
}
