package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// metricSet is one Prometheus text-format scrape: series (name plus its
// rendered label set, exactly as exposed) to value.
type metricSet map[string]float64

// parseMetrics reads the Prometheus text exposition format. Comment and
// blank lines are skipped; a sample line is "series value [timestamp]",
// where series may carry a {label="..."} set containing spaces.
func parseMetrics(r io.Reader) (metricSet, error) {
	m := metricSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		series, rest := line, ""
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			series, rest = line[:i+1], line[i+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			series, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", n, err)
		}
		m[series] = v
	}
	return m, sc.Err()
}

// delta returns after - before for every series in after. Gauges come
// out as differences too; callers read only counters and histogram
// sums and counts from a delta.
func delta(before, after metricSet) metricSet {
	d := metricSet{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds each series across several daemons' sets.
func sum(sets ...metricSet) metricSet {
	out := metricSet{}
	for _, s := range sets {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}

// histMean is a histogram's mean observation over the delta, scaled by
// unit (1e3 for ms, 1e6 for µs, from seconds); 0 with no observations.
func (m metricSet) histMean(name string, unit float64) float64 {
	n := m[name+"_count"]
	if n == 0 {
		return 0
	}
	return m[name+"_sum"] / n * unit
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
