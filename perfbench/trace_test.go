package main

import "testing"

// A parent [0,100) with children [10,30), [20,50) and [60,70) covers 50
// of its 100 ns: the overlap is counted once.
func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "resultcache.get", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "engine.sim", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "report.encode", Start: 60, End: 70},
		{ID: 4, Parent: -1, Name: "request", Start: 100, End: 140},
	}
	layers, roots := summarize(spans)
	if got := layers["request"].selfN; got != 50+40 {
		t.Errorf("request self = %d, want 90", got)
	}
	if got := layers["engine.sim"].selfN; got != 30 {
		t.Errorf("leaf self = %d, want its duration 30", got)
	}
	if len(roots) != 2 || roots[0] != 100 || roots[1] != 40 {
		t.Errorf("roots = %v, want [100 40]", roots)
	}
	total := int64(0)
	for _, ls := range layers {
		total += ls.selfN
	}
	if total != 90+20+30+10 {
		t.Errorf("self times sum to %d", total)
	}
}

// With non-overlapping children, self times add up to the root spans'
// durations exactly: the accounting identity the traced run reports.
func TestTracerSelfTimesAccountForRequests(t *testing.T) {
	tr := newTracer()
	for req := 0; req < 3; req++ {
		root := tr.begin(req, -1, "request")
		tr.call(req, root, "experiments.plan", func() {})
		tr.call(req, root, "engine.sim", func() {})
		tr.end(root)
	}
	layers, roots := summarize(tr.spans)
	var self, wall int64
	for _, ls := range layers {
		self += ls.selfN
	}
	for _, d := range roots {
		wall += d
	}
	if self != wall {
		t.Errorf("self times %d != request time %d", self, wall)
	}
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Duration: 5.20s, Total samples = 4s (76.92%)
Showing nodes accounting for 4s, 100% of 4s total
      flat  flat%   sum%        cum   cum%
     2s 50.00% 50.00%         2s 50.00%  repro/internal/bus.(*Bus).ServiceN
     1s 25.00% 75.00%         1s 25.00%  repro/internal/cachemodel.(*Model).Plan
  0.50s 12.50% 87.50%      0.50s 12.50%  repro/internal/cache.(*Cache).Access (inline)
  0.50s 12.50%   100%      3.50s 87.50%  runtime.mallocgc
`)
	shares, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	for pkg, want := range map[string]float64{"bus": 0.5, "cachemodel": 0.25, "cache": 0.125} {
		if got := shares[pkg]; got != want {
			t.Errorf("%s share = %v, want %v", pkg, got, want)
		}
	}
	if _, ok := shares["runtime"]; ok {
		t.Error("runtime counted as a repro/internal package")
	}
	if _, err := parsePprofTop([]byte("no rows\n")); err == nil {
		t.Error("output without rows accepted")
	}
}
