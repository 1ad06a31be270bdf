package sched

import (
	"testing"

	"repro/internal/cachemodel"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/simtime"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// requireSameResult fails the test unless got is bitwise identical to want
// in every field of the Result, including the Stats decomposition.
func requireSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Policy != want.Policy || got.Makespan != want.Makespan ||
		got.Events != want.Events || got.BusTransactions != want.BusTransactions {
		t.Fatalf("%s: header diverged:\ngot  %+v\nwant %+v", label, got, want)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats diverged:\ngot  %+v\nwant %+v", label, got.Stats, want.Stats)
	}
	if len(got.Jobs) != len(want.Jobs) || len(got.Profile) != len(want.Profile) {
		t.Fatalf("%s: shape diverged: %d/%d jobs, %d/%d profile bins",
			label, len(got.Jobs), len(want.Jobs), len(got.Profile), len(want.Profile))
	}
	for i := range want.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			t.Fatalf("%s: job %d diverged:\ngot  %+v\nwant %+v", label, i, got.Jobs[i], want.Jobs[i])
		}
	}
	for i := range want.Profile {
		if got.Profile[i] != want.Profile[i] {
			t.Fatalf("%s: profile[%d] diverged: %v vs %v", label, i, got.Profile[i], want.Profile[i])
		}
	}
}

// TestRunnerReuseHeterogeneousConfigs drives one Runner through a gauntlet
// of configs that differ in every dimension the engine substrate is reused
// across — job mixes (growing and shrinking the job/task pools), policies
// (quantum-driven and event-driven), processor counts (growing and
// shrinking the processor pool and profile), seeds, staggered arrivals, and
// cache models — and requires each Result to be bitwise identical to a
// fresh Run of the same config, with every snapshot checked by the oracle.
func TestRunnerReuseHeterogeneousConfigs(t *testing.T) {
	withSnapshotOracle(t)
	procs := func(n int) machine.Config {
		m := machine.Symmetry()
		m.Processors = n
		return m
	}
	mks := []func() Config{
		// Large geometry first, so later smaller runs exercise pool
		// shrinking rather than growth.
		func() Config {
			pol, _ := core.ByName("Equipartition")
			return Config{Machine: procs(16), Policy: pol,
				Apps: []workload.App{smallMVA(), smallMatrix(), smallGravity()}, Seed: 11}
		},
		func() Config {
			pol, _ := core.ByName("Dyn-Aff")
			return Config{Machine: procs(4), Policy: pol,
				Apps: []workload.App{smallGravity()}, Seed: 2}
		},
		func() Config {
			pol, _ := core.ByName("TimeShare-RR") // quantum-driven
			return Config{Machine: procs(8), Policy: pol,
				Apps: []workload.App{smallMatrix(), smallMVA()}, Seed: 7}
		},
		func() Config {
			pol, _ := core.ByName("Dyn-Aff-Delay")
			return Config{Machine: procs(12), Policy: pol,
				Apps: []workload.App{smallMVA(), smallMVA()}, Seed: 7,
				Arrivals: []simtime.Time{0, simtime.Time(2 * simtime.Second)}}
		},
		func() Config {
			pol, _ := core.ByName("Dyn-Aff")
			return Config{Machine: procs(6), Policy: pol,
				Apps: []workload.App{smallGravity(), smallMVA()}, Seed: 5,
				CacheModel: cachemodel.KindExact}
		},
		// Same config as the first run again: the substrate has been through
		// every other shape in between.
		func() Config {
			pol, _ := core.ByName("Equipartition")
			return Config{Machine: procs(16), Policy: pol,
				Apps: []workload.App{smallMVA(), smallMatrix(), smallGravity()}, Seed: 11}
		},
	}
	fresh := make([]Result, len(mks))
	for i, mk := range mks {
		r, err := Run(mk())
		if err != nil {
			t.Fatalf("fresh run %d: %v", i, err)
		}
		fresh[i] = r
	}
	rn := NewRunner()
	for i, mk := range mks {
		r, err := rn.Run(mk())
		if err != nil {
			t.Fatalf("reused run %d: %v", i, err)
		}
		requireSameResult(t, "run "+string(rune('A'+i)), r, fresh[i])
	}
}

// FuzzRunnerReuse interleaves randomly generated configs through a single
// Runner and checks every Result against a fresh Run, bitwise. It is the
// adversarial counterpart of TestRunnerReuseHeterogeneousConfigs: random
// DAG shapes, machine sizes, policies, and seeds probe reuse paths the
// hand-written gauntlet misses.
func FuzzRunnerReuse(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	f.Add(uint64(0xdeadbeef))
	f.Add(uint64(31415926535))
	policies := []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-NoPri",
		"Dyn-Aff-Delay", "TimeShare-RR", "TimeShare-Aff"}
	f.Fuzz(func(t *testing.T, seed uint64) {
		withSnapshotOracle(t)
		rng := xrand.New(seed, 0xfe0de)
		rn := NewRunner()
		nruns := 2 + rng.Intn(3)
		for k := 0; k < nruns; k++ {
			mc := machine.Symmetry()
			mc.Processors = 2 + rng.Intn(15)
			apps := make([]workload.App, 1+rng.Intn(3))
			for j := range apps {
				apps[j] = randomApp(rng, "RND")
			}
			name := policies[rng.Intn(len(policies))]
			runSeed := rng.Uint64()
			mk := func() Config {
				pol, _ := core.ByName(name)
				return Config{Machine: mc, Policy: pol, Apps: apps, Seed: runSeed}
			}
			want, err := Run(mk())
			if err != nil {
				t.Skipf("run %d rejected: %v", k, err)
			}
			got, err := rn.Run(mk())
			if err != nil {
				t.Fatalf("reused run %d failed where fresh succeeded: %v", k, err)
			}
			requireSameResult(t, "fuzz run", got, want)
		}
	})
}
