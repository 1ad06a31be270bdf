// Command perfbench is the repository's end-to-end benchmark: it drives
// real affinityd daemons over loopback HTTP with a seeded closed loop of
// campaign requests, checks every checked body byte for byte against the
// monolithic experiments path, and prints one JSON result line. With
// -trace 1 it also replays the run's request sequence in process
// through the same layers, with a span around each layer call and a CPU
// profile, and reports per-layer numbers instead. See README.md.
//
// Run it from the repository root through perfbench/run.sh, which
// builds affinityd and this command first:
//
//	bash perfbench/run.sh --workload compare-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// heldOutSeed is reserved for verifying performance claims: tune and
// develop on other seeds, then confirm on this one.
const heldOutSeed = 90001

// setupRepeats is how many times a -trace 0 run sets its deployment up;
// setup_s is the median. A deployment without warm-up traffic boots in
// milliseconds, so it is set up more often to steady the median.
func setupRepeats(w *workload) int {
	if w.warm != nil {
		return 3
	}
	return 7
}

func numCPU() int { return runtime.NumCPU() }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	bin      string
	out      string
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (compare-cold, table1-cold, warm-overlap, fleet-analytic)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed sends the same request sequence")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&o.trace, "trace", 0, "1 = also run the traced in-process replay and report per-layer metrics")
	fs.StringVar(&o.bin, "affinityd", "", "affinityd binary built from the code under test")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for run state, spans and result records")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.bin == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need -affinityd, -seconds >= 1 and -trace 0|1")
	}
	runDir, err := filepath.Abs(filepath.Join(o.out, "runs", fmt.Sprintf("%s-seed%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	gen := newGenerator(w, o.seed)
	repeats := setupRepeats(w)
	if o.trace == 1 {
		repeats = 1 // setup_s is not reported with -trace 1
	}
	var (
		dp     *deployment
		setups []float64
	)
	defer func() {
		if dp != nil {
			dp.kill()
		}
	}()
	for i := 0; i < repeats; i++ {
		if dp != nil {
			dp.stop()
		}
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		if dp, err = setUp(w, o.bin, dir, gen.ws); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	ph, err := timedPhase(dp, gen, time.Duration(o.seconds)*time.Second, w.fleet)
	if err != nil {
		return err
	}
	engine, sha := dp.front().engineInfo()
	procs := map[string]string{}
	for _, d := range dp.daemons {
		procs[d.role] = d.gomaxprocs
	}
	dp.stop()
	dp = nil
	outs, violations := ph.outs, ph.violations

	checked, mismatched, err := checkBodies(outs, w.checkAll, o.seed, w.name)
	if err != nil {
		return err
	}
	good := 0
	var firstErrs []string
	for i := range outs {
		if outs[i].ok() {
			good++
		} else if len(firstErrs) < 3 {
			firstErrs = append(firstErrs, fmt.Sprintf("%s: %v", outs[i].req.body(), outs[i].err))
		}
	}
	failed := len(outs) - good
	if len(violations) > 0 {
		failed = len(outs) // a run whose invariants break fails as a whole
	}
	for _, e := range firstErrs {
		fmt.Fprintln(os.Stderr, "perfbench: failed request:", e)
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "perfbench: invariant violated:", v)
	}

	res := result{Correct: failed == 0, Attempted: len(outs), Failed: failed}
	if o.trace == 0 {
		if res.Metrics, err = endToEnd(setups, ph, good, failed); err != nil {
			return err
		}
	} else {
		tr, err := tracedRun(w, o, runDir)
		if err != nil {
			return err
		}
		res.Metrics = perLayer(tr, outs, ph.deltas)
	}

	meta := map[string]any{
		"workload":             w.name,
		"seed":                 o.seed,
		"held_out_seed":        heldOutSeed,
		"trace":                o.trace,
		"git_sha":              gitSHA(sha),
		"engine_version":       engine,
		"go_version":           runtime.Version(),
		"nproc":                numCPU(),
		"daemon_gomaxprocs":    procs,
		"clients":              clients,
		"timed_s":              ph.elapsed.Seconds(),
		"samples":              len(outs),
		"bodies_checked":       checked,
		"bodies_mismatched":    mismatched,
		"invariant_violations": violations,
		"setup_s_each":         setups,
	}
	if err := writeRecord(o, meta, res); err != nil {
		return err
	}
	mb, _ := json.Marshal(meta)
	fmt.Printf("perfbench: meta %s\n", mb)
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rb))
	return nil
}

// setUp deploys the workload's daemons, sends the working set, and for
// a restart workload kill -9s the daemon and boots it again on the same
// store, returning once the deployment can take its first timed request.
func setUp(w *workload, bin, dir string, ws []request) (*deployment, error) {
	dp, err := deploy(w, bin, dir)
	if err != nil {
		return nil, err
	}
	if ws != nil {
		if err := warmUp(dp.front().url, ws); err != nil {
			dp.kill()
			return nil, err
		}
	}
	if w.restart {
		old := dp.front()
		old.kill()
		d, err := startDaemon(bin, dir, old.role+"-restarted", old.args)
		if err != nil {
			return nil, err
		}
		dp.daemons[0] = d
	}
	return dp, nil
}

// phase is what the timed phase measured.
type phase struct {
	outs       []outcome
	elapsed    time.Duration
	cpuS       float64     // all daemons' CPU seconds
	rssMiB     float64     // summed peak RSS
	deltas     []metricSet // per daemon, front first
	violations []string
}

// timedPhase runs the closed loop against the deployment with tracing
// off, and reads the daemons' CPU, peak RSS and /metrics deltas around
// it.
func timedPhase(dp *deployment, gen *generator, d time.Duration, fleetOn bool) (*phase, error) {
	before, err := scrapeAll(dp)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuAll(dp)
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	ph.outs, ph.elapsed = closedLoop(dp.front().url, gen, d, minSamplesFor(90))
	cpu1, err := cpuAll(dp)
	if err != nil {
		return nil, err
	}
	ph.cpuS = cpu1 - cpu0
	for _, dm := range dp.daemons {
		v, err := dm.peakRSSMiB()
		if err != nil {
			return nil, err
		}
		ph.rssMiB += v
	}
	ph.deltas, ph.violations, err = settleInvariants(dp, before, fleetOn)
	return ph, err
}

func scrapeAll(dp *deployment) ([]metricSet, error) {
	var out []metricSet
	for _, d := range dp.daemons {
		m, err := d.scrape()
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func cpuAll(dp *deployment) (float64, error) {
	t := 0.0
	for _, d := range dp.daemons {
		v, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		t += v
	}
	return t, nil
}

// settleInvariants scrapes every daemon after the timed phase and checks
// the invariants. A hedged duplicate can land after its campaign has
// returned, so a fleet gets up to three seconds for its dispatch
// accounting to converge before a violation stands.
func settleInvariants(dp *deployment, before []metricSet, fleetOn bool) ([]metricSet, []string, error) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		after, err := scrapeAll(dp)
		if err != nil {
			return nil, nil, err
		}
		deltas := make([]metricSet, len(after))
		for i := range after {
			deltas[i] = delta(before[i], after[i])
		}
		bad := checkInvariants(deltas[0], deltas, fleetOn)
		if len(bad) == 0 || !fleetOn || time.Now().After(deadline) {
			return deltas, bad, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// gitSHA is the checkout's revision when it is a git work tree, else the
// revision the daemon's build info carried.
func gitSHA(daemonSHA string) string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err == nil {
		return strings.TrimSpace(string(out))
	}
	return daemonSHA
}

// writeRecord keeps the full result record, metadata included, under
// the output directory.
func writeRecord(o options, meta map[string]any, res result) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"meta": meta, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// endToEnd computes the end-to-end metrics, named and in the units of
// BENCHMARK.json, from the set-up times and the timed phase, of whose
// requests good succeeded and failed count as failed.
func endToEnd(setups []float64, ph *phase, good, failed int) (map[string]metric, error) {
	lat := make([]float64, len(ph.outs))
	for i := range ph.outs {
		lat[i] = float64(ph.outs[i].latency) / 1e6
		if !ph.outs[i].ok() {
			// A failed request misses every latency limit: count it at
			// the client timeout.
			lat[i] = float64(httpClient.Timeout) / 1e6
		}
	}
	p90, err := percentile(lat, 90)
	if err != nil {
		return nil, err
	}
	n := len(ph.outs)
	return map[string]metric{
		"setup_s":             {median(setups), "s"},
		"latency_p50_ms":      {median(lat), "ms"},
		"latency_p90_ms":      {p90, "ms"},
		"campaigns_per_s":     {float64(good) / ph.elapsed.Seconds(), "1/s"},
		"cpu_ms_per_campaign": {ph.cpuS * 1000 / float64(max(good, 1)), "ms"},
		"rss_peak_mb":         {ph.rssMiB, "MiB"},
		"success_ratio":       {float64(n-failed) / float64(n), "ratio"},
	}, nil
}
