package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	got, err := percentile(ramp(200), 90)
	if err != nil || got != 180 {
		t.Fatalf("p90 of 1..200 = %v, %v; want 180", got, err)
	}
	got, err = percentile(ramp(200), 50)
	if err != nil || got != 100 {
		t.Fatalf("p50 of 1..200 = %v, %v; want 100", got, err)
	}
}

// A tail percentile is reported only with at least ten samples beyond
// it: p90 needs 100 samples, p99 needs 1000.
func TestPercentileTenBeyondRule(t *testing.T) {
	for _, p := range []int{90, 95, 99} {
		n := minSamplesFor(p)
		if _, err := percentile(ramp(n), p); err != nil {
			t.Errorf("p%d of %d samples: %v", p, n, err)
		}
		if _, err := percentile(ramp(n-1), p); err == nil {
			t.Errorf("p%d of %d samples accepted with fewer than %d beyond", p, n-1, minBeyond)
		}
	}
	if n := minSamplesFor(90); n != 100 {
		t.Errorf("minSamplesFor(90) = %d, want 100", n)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
