package main

import (
	"strings"
	"testing"
)

const scrapeBefore = `# HELP affinityd_jobs_failed_total Campaigns that finished with an error.
# TYPE affinityd_jobs_failed_total counter
affinityd_jobs_failed_total 0
affinityd_cell_misses_total 10
affinityd_cell_engine_executions_total{engine="sim"} 4
affinityd_campaign_latency_seconds_bucket{kind="compare",le="0.5"} 3
affinityd_request_admit_seconds_sum 0.002
affinityd_request_admit_seconds_count 4
affinityd_sim_penalty_seconds_total 1.5e-05
`

const scrapeAfter = `affinityd_jobs_failed_total 0
affinityd_cell_misses_total 25
affinityd_cell_engine_executions_total{engine="sim"} 9
affinityd_campaign_latency_seconds_bucket{kind="compare",le="0.5"} 7
affinityd_request_admit_seconds_sum 0.005
affinityd_request_admit_seconds_count 10
affinityd_sim_penalty_seconds_total 2.5e-05 1700000000000
affinityd_fleet_workers 2
`

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"affinityd_cell_misses_total":                                        10,
		`affinityd_cell_engine_executions_total{engine="sim"}`:               4,
		`affinityd_campaign_latency_seconds_bucket{kind="compare",le="0.5"}`: 3,
		"affinityd_sim_penalty_seconds_total":                                1.5e-05,
	} {
		if got := m[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if got := m["affinityd_absent"]; got != 0 {
		t.Errorf("absent series = %v, want 0", got)
	}
}

func TestMetricsDelta(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if got := d["affinityd_cell_misses_total"]; got != 15 {
		t.Errorf("misses delta = %v, want 15", got)
	}
	if got := d[`affinityd_cell_engine_executions_total{engine="sim"}`]; got != 5 {
		t.Errorf("labelled delta = %v, want 5", got)
	}
	if got := d["affinityd_fleet_workers"]; got != 2 {
		t.Errorf("series new in after: delta = %v, want 2", got)
	}
	// (0.005-0.002) s over 6 observations = 500 µs.
	if got := d.histMean("affinityd_request_admit_seconds", 1e6); got < 499.99 || got > 500.01 {
		t.Errorf("admit mean = %v µs, want 500", got)
	}
	if got := d.histMean("affinityd_absent_seconds", 1e6); got != 0 {
		t.Errorf("mean of empty histogram = %v, want 0", got)
	}
	if got := sum(d, d)["affinityd_cell_misses_total"]; got != 30 {
		t.Errorf("sum = %v, want 30", got)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, in := range []string{"affinityd_x\n", "affinityd_x notanumber\n", `affinityd_x{a="b"}` + "\n"} {
		if _, err := parseMetrics(strings.NewReader(in)); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", in)
		}
	}
}
