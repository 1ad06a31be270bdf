package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to be trusted.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, and an error when fewer than minBeyond samples lie above it.
func percentile(xs []float64, p int) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (p*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if beyond := len(s) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", p, len(s), beyond, minBeyond)
	}
	return s[rank-1], nil
}

// minSamplesFor is the fewest samples whose p-th percentile has
// minBeyond samples above it.
func minSamplesFor(p int) int {
	return (minBeyond*100 + (100 - p) - 1) / (100 - p)
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
