package main

import (
	"testing"

	"repro/internal/experiments"
)

func TestRunFast(t *testing.T) {
	if testing.Short() {
		t.Skip("extrapolation is seconds-long")
	}
	opts := experiments.FastOptions()
	opts.Replications = 1
	if _, err := run(opts, 64, false); err != nil {
		t.Fatal(err)
	}
	if _, err := run(opts, 64, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	opts := experiments.FastOptions()
	opts.Replications = 0
	if _, err := run(opts, 64, false); err == nil {
		t.Error("zero replications accepted")
	}
}

func TestRunSimulatedFast(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated scaling is seconds-long")
	}
	opts := experiments.FastOptions()
	opts.Replications = 1
	scen, err := run(opts, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := runSimulated(opts, scen); err != nil {
		t.Fatal(err)
	}
}
