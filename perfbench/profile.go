package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"strings"
)

// profiledPackages are the repro/internal packages whose flat CPU share
// the traced run reports: the engine sub-layers that run inside
// Cell.Run, where no span can reach.
var profiledPackages = []string{
	"bus", "footprint", "eventq", "alloc", "sched", "cachemodel",
	"cache", "memtrace", "measure", "analytic",
}

// enginePackages are the simulator engine's packages; their summed share
// is engine.cpu_share.
var enginePackages = []string{"bus", "footprint", "eventq", "alloc", "sched", "cachemodel"}

// packageShares runs `go tool pprof -top` on a CPU profile and returns
// each repro/internal package's flat share of all samples.
func packageShares(goBin, profile string) (map[string]float64, error) {
	out, err := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parsePprofTop(out)
}

// parsePprofTop reads `pprof -top` rows ("flat flat% sum% cum cum% name")
// and sums flat% by package.
func parsePprofTop(out []byte) (map[string]float64, error) {
	shares := make(map[string]float64)
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || f[1] == "flat%" {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		rows++
		if pkg := internalPackage(f[5]); pkg != "" {
			shares[pkg] += pct / 100
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("pprof -top printed no sample rows")
	}
	return shares, nil
}

// internalPackage maps a pprof function name to its repro/internal
// package ("repro/internal/bus.(*Bus).ServiceN" -> "bus"), or "".
func internalPackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// gcCPU reads the runtime's cumulative GC and total non-idle CPU
// seconds, whose deltas give the GC's share of the process's work.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	get := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return get(0), get(1) - get(2)
}
