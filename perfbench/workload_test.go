package main

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
)

// sequence renders a generator's working set and first n timed requests
// as their wire bytes.
func sequence(w *workload, seed uint64, n int) [][]byte {
	g := newGenerator(w, seed)
	var out [][]byte
	for _, r := range g.ws {
		out = append(out, r.body())
	}
	for i := 0; i < n; i++ {
		out = append(out, g.next().body())
	}
	return out
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := sequence(w, 7, 300), sequence(w, 7, 300)
		if len(a) != len(b) {
			t.Fatalf("%s: lengths %d and %d", w.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs for one seed:\n%s\n%s", w.name, i, a[i], b[i])
			}
		}
		c := sequence(w, 8, 300)
		if bytes.Equal(bytes.Join(a, nil), bytes.Join(c, nil)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.name)
		}
	}
}

// Every generated request must be one the daemon accepts: it normalizes
// without error, and the sim workloads never ask the simulator for the
// policy it deadlocks under.
func TestGeneratedRequestsAreValid(t *testing.T) {
	for _, w := range workloads {
		g := newGenerator(w, 3)
		reqs := append([]request(nil), g.ws...)
		for i := 0; i < 500; i++ {
			reqs = append(reqs, g.next())
		}
		for _, r := range reqs {
			camp, ok := experiments.CampaignByKind(r.Kind)
			if !ok {
				t.Fatalf("%s: unknown kind in %s", w.name, r.body())
			}
			np, err := camp.Normalize(r.Params)
			if err != nil {
				t.Fatalf("%s: %s: %v", w.name, r.body(), err)
			}
			if np.Engine == experiments.EngineSim || r.Kind == "table1" {
				for _, p := range np.Policies {
					if p == "Dyn-Aff-Delay" {
						t.Fatalf("%s: sim request %s uses Dyn-Aff-Delay", w.name, r.body())
					}
				}
			}
		}
	}
}

func TestSubsetKeepsOrderAndSize(t *testing.T) {
	r := newRNG(1, "subset")
	for i := 0; i < 200; i++ {
		s := r.subset(allPolicies, 1, 3)
		if len(s) < 1 || len(s) > 3 {
			t.Fatalf("subset size %d outside [1,3]", len(s))
		}
		last := -1
		for _, p := range s {
			k := indexOf(allPolicies, p)
			if k <= last {
				t.Fatalf("subset %v not in source order", s)
			}
			last = k
		}
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
