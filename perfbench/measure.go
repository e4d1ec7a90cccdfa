package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run launches the fleet and warms it;
// setup_s is the median, and the last fleet serves the timed phase.
const setupRepeats = 3

// e2eRun is everything one tracing-off run measured from outside the
// program.
type e2eRun struct {
	setups    []float64 // seconds per launch+ready+warm-up
	load      *loadResult
	checked   verified
	serverCPU time.Duration
	rssMB     float64
	diff      fleetDiff
	paperErr  float64
	latencies []float64 // sorted ms of in-window 2xx replies
	doneAt    []float64 // sorted completion seconds of the same replies
}

// measureE2E launches the workload's fleet setupRepeats times, runs the
// closed loop on the last one for dur, scrapes /metrics around it,
// checks every reply against the in-process oracle and the paper
// tables, and stops every process before returning.
func measureE2E(w *workload, p plan, bin, logDir string, dur time.Duration) (*e2eRun, error) {
	size := 1
	if w.cluster {
		size = 3
	}
	run := &e2eRun{}
	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	for k := 0; k < setupRepeats; k++ {
		if f != nil {
			f.stop()
			f = nil
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(bin, logDir, size); err != nil {
			return nil, err
		}
		if err := sendAll(f.front(), p.warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
	}

	before, err := scrapeFleet(f)
	if err != nil {
		return nil, err
	}
	ticks0, err := f.cpuTicks()
	if err != nil {
		return nil, err
	}
	if run.load, err = closedLoop(f.front(), p.timed, w.hot, dur); err != nil {
		return nil, err
	}
	ticks1, err := f.cpuTicks()
	if err != nil {
		return nil, err
	}
	after, err := scrapeFleet(f)
	if err != nil {
		return nil, err
	}
	run.serverCPU = time.Duration(ticks1-ticks0) * time.Second / userHZ
	run.diff = diffFleet(before, after)
	if run.rssMB, err = f.peakRSSMB(); err != nil {
		return nil, err
	}

	// Untimed checks, with every core: the validation sweep goes through
	// the same fleet, the oracle runs in this process.
	runtime.GOMAXPROCS(hostCPUs())
	defer runtime.GOMAXPROCS(generatorGOMAXPROCS)
	if run.paperErr, err = paperMaxErr(f.front()); err != nil {
		return nil, err
	}
	if run.checked, err = verify(w, p.timed, run.load.replies, hostCPUs()); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	if err := reconcile(w, run.diff, len(run.load.replies), run.checked.points); err != nil {
		return nil, fmt.Errorf("counters: %w", err)
	}
	var lats []time.Duration
	for _, r := range run.load.replies {
		if r.inWindow && r.err == nil && r.status/100 == 2 {
			lats = append(lats, r.lat)
			run.doneAt = append(run.doneAt, r.at.Seconds())
		}
	}
	sort.Float64s(run.doneAt)
	if len(lats) == 0 {
		return nil, fmt.Errorf("no request completed inside the %v window", dur)
	}
	run.latencies = sortedMillis(lats)
	return run, nil
}

// metric is one reported figure with its unit and sample count.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`              // samples behind the value
	Note  string  `json:"note,omitempty"` // how it was derived
}

// e2eMetrics derives the end-to-end metrics of a run. The ones that
// exist only on some workloads (points_per_s, sim_cycles_per_s) come
// after the shared ones; main reports only the shared ones in the
// result line.
func e2eMetrics(w *workload, run *e2eRun) []metric {
	secs := run.load.window.Seconds()
	ok := len(run.latencies)
	sent := len(run.load.replies)
	tail := w.tail
	beyond := int(float64(ok) * (1 - tail))
	ms := []metric{
		{Name: "setup_s", Unit: "s", Value: median(run.setups), N: len(run.setups),
			Note: "median launch → /readyz → warm-up"},
		{Name: "throughput_rps", Unit: "1/s", Value: segmentRate(run.doneAt, throughputSegments), N: ok,
			Note: fmt.Sprintf("median rate of %d equal-count segments of the window's 2xx replies", throughputSegments)},
		{Name: "latency_p50_ms", Unit: "ms", Value: quantile(run.latencies, 0.5), N: ok},
		{Name: "latency_tail_ms", Unit: "ms", Value: quantile(run.latencies, tail), N: ok,
			Note: fmt.Sprintf("p%g, %d samples beyond", tail*100, beyond)},
		{Name: "server_cpu_us_per_req", Unit: "us", Value: float64(run.serverCPU.Microseconds()) / float64(sent), N: sent,
			Note: "utime+stime of every mbserve / requests sent"},
		{Name: "server_rss_mb", Unit: "MiB", Value: run.rssMB, N: 1, Note: "summed VmHWM"},
		{Name: "paper_maxerr", Unit: "abs", Value: run.paperErr, N: paperCells,
			Note: "max |served − paper| over Tables II–VI"},
	}
	switch {
	case w.path == "/v1/sweep":
		ms = append(ms, metric{Name: "points_per_s", Unit: "1/s", Value: float64(run.checked.windowPoints) / secs,
			N: run.checked.windowPoints})
	case w.path == "/v1/simulate":
		ms = append(ms, metric{Name: "sim_cycles_per_s", Unit: "1/s", Value: float64(run.checked.windowCycles) / secs,
			N: ok})
	}
	return ms
}

// runDir is where a run keeps its server logs and trace files.
func runDir(root string, w *workload) (string, error) {
	dir := filepath.Join(root, ".bench_build", "perfbench", w.name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
