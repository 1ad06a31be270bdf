package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkDeclared fails unless emitted and declared hold the same names
// with the same units, every name well-formed.
func checkDeclared(t *testing.T, what string, emitted map[string]metric, declared map[string]string) {
	t.Helper()
	var names []string
	for name := range emitted {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !nameRE.MatchString(name) {
			t.Errorf("%s metric %q is not a valid name", what, name)
		}
		unit, ok := declared[name]
		if !ok {
			t.Errorf("%s metric %q is emitted but not in BENCHMARK.json", what, name)
		} else if unit != emitted[name].Unit {
			t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", what, name, emitted[name].Unit, unit)
		}
	}
	for name := range declared {
		if _, ok := emitted[name]; !ok {
			t.Errorf("%s metric %q is in BENCHMARK.json but never emitted", what, name)
		}
	}
}

func TestWorkloadNamesMatchBenchmarkJSON(t *testing.T) {
	f := loadBenchmark(t)
	declared := map[string]string{}
	for _, w := range f.Workloads {
		declared[w.Name] = w.Why
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload %q is not a valid name", w.name)
		}
		why, ok := declared[w.name]
		if !ok {
			t.Errorf("workload %q is not in BENCHMARK.json", w.name)
		} else if why != w.why {
			t.Errorf("workload %q: BENCHMARK.json gives another reason", w.name)
		}
		delete(declared, w.name)
	}
	for name := range declared {
		t.Errorf("BENCHMARK.json workload %q does not exist", name)
	}
}

func TestEndToEndMetricsMatchBenchmarkJSON(t *testing.T) {
	declared := map[string]string{}
	for _, m := range loadBenchmark(t).EndToEnd {
		declared[m.Name] = m.Unit
	}
	ph := &phase{outs: make([]outcome, minSamplesFor(90)), elapsed: time.Second}
	for i := range ph.outs {
		ph.outs[i] = outcome{latency: time.Millisecond, status: 200}
	}
	emitted, err := endToEnd([]float64{1}, ph, len(ph.outs), 0)
	if err != nil {
		t.Fatal(err)
	}
	checkDeclared(t, "end-to-end", emitted, declared)
}

func TestPerLayerMetricsMatchBenchmarkJSON(t *testing.T) {
	declared := map[string]string{}
	for _, m := range loadBenchmark(t).PerLayer {
		declared[m.Name] = m.Unit
	}
	emitted := perLayer(&traceResult{requests: 1}, nil, []metricSet{{}})
	checkDeclared(t, "per-layer", emitted, declared)
}
