package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one affinityd process the benchmark launched.
type daemon struct {
	role       string // "daemon", "coordinator", "worker1", ...
	args       []string
	cmd        *exec.Cmd
	url        string
	gomaxprocs string
	log        string
	exited     chan struct{}
	// joined closes when a -join worker prints that it has registered.
	joined chan struct{}
}

var listenRE = regexp.MustCompile(`listening on (http://[0-9.:]+) \(engine ([^,]+), ([^)]+)\)`)

// startDaemon launches bin with args and returns once it has printed its
// "listening" line and answered /healthz. Its stdout is read as it is
// written, so start-up is timed without polling; stdout and stderr are
// kept in dir/<role>.log.
func startDaemon(bin, dir, role string, args []string) (*daemon, error) {
	logPath := filepath.Join(dir, role+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = pw, logf
	procs := os.Getenv("GOMAXPROCS")
	if procs == "" {
		procs = strconv.Itoa(numCPU())
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
	// If the benchmark itself is killed, its daemons die with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	pw.Close() // the child holds the write end now
	if err != nil {
		pr.Close()
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	d := &daemon{role: role, args: args, cmd: cmd, gomaxprocs: procs, log: logPath,
		exited: make(chan struct{}), joined: make(chan struct{})}
	urls := make(chan string, 1)
	// The reader ends at EOF, when the process exits; Wait does not
	// touch the pipe, so the two goroutines never race on it.
	go func() {
		defer pr.Close()
		defer logf.Close()
		joined := false
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case urls <- m[1]:
				default:
				}
			}
			if !joined && strings.HasPrefix(line, "affinityd: worker mode") {
				joined = true
				close(d.joined)
			}
		}
	}()
	go func() { cmd.Wait(); close(d.exited) }()
	select {
	case d.url = <-urls:
	case <-d.exited:
		out, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("%s exited during start-up: %s", role, bytes.TrimSpace(out))
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s printed no listening line within 30s", role)
	}
	// The listener is bound before the line is printed, so /healthz
	// answers as soon as Serve runs.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("%s never became healthy", role)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// engineInfo reports the engine version and git revision the daemon
// printed on start-up.
func (d *daemon) engineInfo() (engine, sha string) {
	out, _ := os.ReadFile(d.log)
	if m := listenRE.FindSubmatch(out); m != nil {
		return string(m[2]), string(m[3])
	}
	return "unknown", "unknown"
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stop sends SIGTERM and waits for the drain, escalating to SIGKILL
// after 20 seconds.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.kill()
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads the process's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are the 12th and 13th after ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", d.role)
	}
	u, err1 := strconv.ParseUint(f[11], 10, 64)
	sy, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat for %s", d.role)
	}
	return float64(u+sy) / clockTicks, nil
}

// peakRSSMiB reads VmHWM, the process's peak resident set, in MiB.
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", d.role)
}

// scrape fetches and parses the daemon's /metrics.
func (d *daemon) scrape() (metricSet, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", d.role, resp.Status)
	}
	return parseMetrics(resp.Body)
}

// deployment is the set of daemons serving one workload; the first is
// the one clients talk to.
type deployment struct {
	daemons []*daemon
}

func (dp *deployment) front() *daemon { return dp.daemons[0] }

// stop drains every daemon, workers after the coordinator's clients are
// gone so no dispatch is cut off.
func (dp *deployment) stop() {
	for _, d := range dp.daemons {
		d.stop()
	}
}

func (dp *deployment) kill() {
	for _, d := range dp.daemons {
		d.kill()
	}
}

// fleetToken authenticates the benchmark's fleet; any non-empty value
// turns HMAC signing on.
const fleetToken = "perfbench-fleet-secret"

// workerParallelism is each fleet worker's -workers (its advertised
// capacity) and the coordinator's per-campaign cell concurrency: two
// workers at one cell each keep the fleet within two cores, and two
// campaigns dispatching one cell at a time never find both workers full,
// so every cell is dispatched rather than run on the coordinator.
const workerParallelism = 1

// deploy launches the workload's daemons on store directories under dir.
func deploy(w *workload, bin, dir string) (*deployment, error) {
	base := []string{}
	if w.cacheMB > 0 {
		base = append(base, "-cache-mb", strconv.Itoa(w.cacheMB))
	}
	if !w.fleet {
		d, err := startDaemon(bin, dir, "daemon", append(base, "-store-dir", filepath.Join(dir, "store")))
		if err != nil {
			return nil, err
		}
		return &deployment{daemons: []*daemon{d}}, nil
	}
	coord, err := startDaemon(bin, dir, "coordinator", append(base,
		"-coordinator", "-fleet-token", fleetToken, "-workers", strconv.Itoa(workerParallelism),
		"-store-dir", filepath.Join(dir, "store-coordinator")))
	if err != nil {
		return nil, err
	}
	dp := &deployment{daemons: []*daemon{coord}}
	for i := 1; i <= 2; i++ {
		role := fmt.Sprintf("worker%d", i)
		wd, err := startDaemon(bin, dir, role, append(base,
			"-join", coord.url, "-fleet-token", fleetToken,
			"-workers", strconv.Itoa(workerParallelism), "-store-dir", filepath.Join(dir, "store-"+role)))
		if err != nil {
			dp.kill()
			return nil, err
		}
		dp.daemons = append(dp.daemons, wd)
	}
	// A worker registers synchronously before printing its mode line;
	// the coordinator's gauge confirms both are dispatchable.
	for _, wd := range dp.daemons[1:] {
		select {
		case <-wd.joined:
		case <-wd.exited:
			dp.kill()
			return nil, fmt.Errorf("%s exited before joining", wd.role)
		case <-time.After(30 * time.Second):
			dp.kill()
			return nil, fmt.Errorf("%s never joined", wd.role)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := coord.scrape()
		if err == nil && m["affinityd_fleet_workers"] == 2 {
			return dp, nil
		}
		if time.Now().After(deadline) {
			dp.kill()
			return nil, fmt.Errorf("fleet workers never registered (last error %v)", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
