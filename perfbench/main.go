// Command perfbench is the multibus repository benchmark. It builds
// nothing itself: perfbench/run.sh builds cmd/mbserve and this program
// from the checkout, then runs
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// from the repository root. With --trace 0 it launches real mbserve
// processes, drives them over loopback TCP with a closed-loop generator
// and prints the end-to-end metrics. With --trace 1 it runs the same
// load for the /metrics-derived layer counters and then replays the
// workload's request sequence in-process, recording spans around every
// layer call, and prints the per-layer metrics. Every reply is checked
// against an in-process reference server and the paper's tables; a
// wrong answer fails the run. The last line of standard output is the
// result object. See README.md for the workloads and what each metric
// should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	mbserve  string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload name")
	fs.Int64Var(&c.seed, "seed", 1, "input seed")
	fs.IntVar(&c.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&c.trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from the traced replay")
	fs.StringVar(&c.root, "root", ".", "repository checkout the binaries were built from")
	fs.StringVar(&c.mbserve, "mbserve", "", "path to the built mbserve binary")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected arguments %v", fs.Args())
	case c.seconds < 1:
		return c, errors.New("--seconds must be at least 1")
	case c.trace != 0 && c.trace != 1:
		return c, errors.New("--trace must be 0 or 1")
	case c.mbserve == "":
		return c, errors.New("--mbserve is required")
	}
	return c, nil
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The metrics the result line carries, in BENCHMARK.json order.
var (
	endToEndNames = []string{
		"setup_s", "latency_p50_ms", "server_cpu_us_per_req", "server_rss_mb",
	}
	perLayerNames = []string{
		"service.handler_us", "service.self_us", "service.allocs_per_req", "service.alloc_kb_per_req",
		"service.queue_wait_ms",
		"scenario.parse_us", "scenario.build_us", "scenario.key_us",
		"cache.hit_ratio", "cache.evictions_per_req", "cache.lookup_us",
		"compute.analyze_us", "compute.sweep_point_us", "compute.simulate_ms",
		"analytic.classify_us", "analytic.bandwidth_us",
		"sweep.run_ms", "sweep.plan_self_ms",
		"sim.ns_per_cycle",
		"cluster.forward_frac", "cluster.peer_errors", "cluster.sweep_batch_ms",
		"transport.overhead_us", "loadgen.cpu_frac", "trace.overhead_frac",
		"throughput_rps", "latency_tail_ms", "paper_maxerr",
	}
)

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if _, err := os.Stat(cfg.mbserve); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(generatorGOMAXPROCS)
	dir, err := runDir(cfg.root, w)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	servers := 1
	if w.cluster {
		servers = 3
	}
	host := hostFingerprint(cfg.root, servers)
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "host: %s\n", hostJSON)

	p := newPlan(w, cfg.seed, cfg.seconds)
	e2e, err := measureE2E(w, p, cfg.mbserve, dir, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return fail(stdout, stderr, err)
	}
	all := e2eMetrics(w, e2e)
	names := endToEndNames
	if cfg.trace == 1 {
		layers, err := measureLayers(w, p, e2e, dir)
		if err != nil {
			return fail(stdout, stderr, err)
		}
		all = append(all, layers...)
		names = perLayerNames
	}
	for _, m := range all {
		fmt.Fprintf(stdout, "metric %-26s %14.6g %-6s n=%-7d %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
	res := result{
		Correct:   true,
		Attempted: len(e2e.load.replies),
		Failed:    e2e.checked.failed,
		Metrics:   map[string]metricValue{},
	}
	byName := map[string]metric{}
	for _, m := range all {
		byName[m.Name] = m
	}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return fail(stdout, stderr, fmt.Errorf("metric %s was not measured", n))
		}
		res.Metrics[n] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	report := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Seconds  int      `json:"seconds"`
		Trace    int      `json:"trace"`
		Host     hostInfo `json:"host"`
		Metrics  []metric `json:"metrics"`
		Result   result   `json:"result"`
	}{w.name, cfg.seed, cfg.seconds, cfg.trace, host, all, res}
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		path := filepath.Join(dir, fmt.Sprintf("report-trace%d.json", cfg.trace))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// fail reports a failed run loudly: the reason on standard error, a
// result line marked incorrect, and a non-zero exit.
func fail(stdout, stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "perfbench: FAILED:", err)
	line, _ := json.Marshal(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
	fmt.Fprintln(stdout, string(line))
	return 1
}
