package main

import (
	"testing"

	"repro/internal/simtime"
)

func TestParse(t *testing.T) {
	cmd, c, err := parse([]string{"compare", "-fast", "-mix", "5", "-reps", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if cmd != "compare" || c.mix != 5 || c.opts.Replications != 1 {
		t.Fatalf("parse wrong: cmd=%q mix=%d reps=%d", cmd, c.mix, c.opts.Replications)
	}
	// -fast keeps its own replications and budget unless a flag is given.
	_, c, err = parse([]string{"measure", "-fast"})
	if err != nil {
		t.Fatal(err)
	}
	if c.opts.Replications != 2 || c.opts.MeasureBudget != 4*simtime.Second {
		t.Fatalf("-fast: reps=%d budget=%v, want 2 and 4s", c.opts.Replications, c.opts.MeasureBudget)
	}
	_, c, err = parse([]string{"compare", "-reps", "1", "-fast"})
	if err != nil {
		t.Fatal(err)
	}
	if c.opts.Replications != 1 || c.opts.MeasureBudget != 4*simtime.Second {
		t.Fatalf("-reps 1 -fast: reps=%d budget=%v, want 1 and 4s", c.opts.Replications, c.opts.MeasureBudget)
	}
	if _, _, err := parse(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	if _, _, err := parse([]string{"compare", "-badflag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if _, _, err := parse([]string{"compare", "-procs", "0"}); err == nil {
		t.Error("zero procs accepted")
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestSubcommandsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration is seconds-long")
	}
	cases := [][]string{
		{"characterize", "-fast"},
		{"characterize", "-fast", "-stats"},
		{"extras", "-fast", "-reps", "1"},
		{"measure", "-fast", "-budget", "3"},
		{"compare", "-fast", "-reps", "1", "-mix", "5", "-timeshare"},
		{"future", "-fast", "-reps", "1", "-mix", "5", "-maxproduct", "64"},
		{"trace", "-fast", "-mix", "4", "-policy", "Dynamic", "-window", "2"},
	}
	for _, args := range cases {
		args := args
		t.Run(args[0], func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("affinitysim %v: %v", args, err)
			}
		})
	}
}

func TestTraceRejectsBadPolicy(t *testing.T) {
	if err := run([]string{"trace", "-fast", "-policy", "bogus"}); err == nil {
		t.Error("bogus trace policy accepted")
	}
}

func TestCSVMode(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration is seconds-long")
	}
	if err := run([]string{"characterize", "-fast", "-csv"}); err != nil {
		t.Fatal(err)
	}
}
