package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"multibus/internal/cluster"
	"multibus/internal/compute"
	"multibus/internal/service"
)

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a, b := newPlan(w, 7, 2), newPlan(w, 7, 2)
		c := newPlan(w, 8, 2)
		if !equalRequests(a.warm, b.warm) || !equalRequests(a.timed, b.timed) {
			t.Errorf("%s: seed 7 gave two different request sequences", w.name)
		}
		if equalRequests(a.timed, c.timed) {
			t.Errorf("%s: seeds 7 and 8 gave the same timed sequence", w.name)
		}
		if len(a.timed) == 0 || len(a.warm) == 0 {
			t.Errorf("%s: empty plan", w.name)
		}
	}
}

func equalRequests(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

// Cold workloads must never repeat a request, or a timed point could
// be a cache hit.
func TestColdRequestsAreDistinct(t *testing.T) {
	for _, w := range workloads {
		if w.hot {
			continue
		}
		p := newPlan(w, 3, 2)
		seen := map[string]bool{}
		for _, rq := range append(p.warm, p.timed...) {
			if seen[string(rq.body)] {
				t.Fatalf("%s: request repeats: %s", w.name, rq.body)
			}
			seen[string(rq.body)] = true
		}
	}
}

func TestTimedBackendKeepsBatchSweeper(t *testing.T) {
	tr := newTracer(true)
	if _, ok := newTimedBackend(compute.Local(), tr).(compute.BatchSweeper); ok {
		t.Error("decorated local backend claims compute.BatchSweeper, which compute.Local() lacks")
	}
	cb, err := cluster.New(cluster.Options{Self: "http://127.0.0.1:1", Peers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := newTimedBackend(cb, tr).(compute.BatchSweeper); !ok {
		t.Fatal("decorated cluster.Backend lost compute.BatchSweeper")
	}
}

// A sweep through the decorated cluster backend takes the batch path:
// the front records a compute.sweep_batch span under the handler span,
// and the merged body equals the standalone reference.
func TestReplayClusterTakesBatchPath(t *testing.T) {
	w, err := findWorkload("cluster-sweep")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(true)
	target, err := newReplayTarget(w, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer target.stop()
	rq := newPlan(w, 1, 1).timed[0]
	ctx, end := tr.start(context.Background(), "service.handler", 0)
	status, body := serveInProcess(ctx, target.front, rq)
	end(0)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	o, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	if _, want := o.serve(rq); !bytes.Equal(body, want) {
		t.Fatal("cluster sweep body differs from the standalone reference")
	}
	st := summarize(tr.snapshot())
	if st.count("compute.sweep_batch") != 1 {
		t.Fatalf("want one compute.sweep_batch span, got %d", st.count("compute.sweep_batch"))
	}
	root := st.byName["service.handler"][0]
	if kids := st.children[root.ID]; len(kids) != 1 || kids[0].Name != "compute.sweep_batch" {
		t.Fatalf("handler children = %+v, want the batch span", kids)
	}
}

func TestVerifyFailsOnCorruptedBody(t *testing.T) {
	for _, name := range []string{"analyze-hot", "explore-cold"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		p := newPlan(w, 5, 1)
		o, err := newOracle()
		if err != nil {
			t.Fatal(err)
		}
		_, body := o.serve(p.timed[0])
		xc := "hit"
		if !w.hot {
			xc = "miss"
		}
		good := []reply{{idx: 0, status: 200, xcache: xc, body: bytes.Clone(body), inWindow: true}}
		if _, err := verify(w, p.timed, good, 2); err != nil {
			t.Fatalf("%s: correct body rejected: %v", name, err)
		}
		bad := bytes.Clone(body)
		bad[len(bad)/2] ^= 1
		corrupt := []reply{{idx: 0, status: 200, xcache: xc, body: bad, inWindow: true}}
		if _, err := verify(w, p.timed, corrupt, 2); err == nil {
			t.Fatalf("%s: corrupted body accepted", name)
		}
	}
}

func TestVerifyFailsOnWrongCacheOutcome(t *testing.T) {
	w, err := findWorkload("analyze-hot")
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(w, 5, 1)
	o, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	_, body := o.serve(p.timed[0])
	miss := []reply{{idx: 0, status: 200, xcache: "miss", body: body, inWindow: true}}
	if _, err := verify(w, p.timed, miss, 1); err == nil {
		t.Fatal("a miss on the hot workload was accepted")
	}
}

// shiftedBackend serves every sweep point's bandwidth shifted by delta.
type shiftedBackend struct {
	compute.Backend
	delta float64
}

func (b shiftedBackend) SweepPoint(ctx context.Context, jb compute.PointJob) (compute.Point, error) {
	pt, err := b.Backend.SweepPoint(ctx, jb)
	pt.Bandwidth += b.delta
	return pt, err
}

// The worst cell, in Table II, is served 0.00902 below the printed
// value; lowering every bandwidth by 0.0005 takes it to 0.0095.
func TestPaperMaxErrGate(t *testing.T) {
	for _, tc := range []struct {
		delta  float64
		wantOK bool
	}{{0, true}, {-0.0005, false}} {
		srv, err := service.New(service.Options{Backend: shiftedBackend{compute.Local(), tc.delta}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		got, err := paperMaxErr(ts.URL)
		ts.Close()
		if tc.wantOK && (err != nil || got <= 0 || got > 0.00905) {
			t.Errorf("unshifted server: maxerr %v, err %v", got, err)
		}
		if !tc.wantOK && err == nil {
			t.Errorf("bandwidths shifted by %v passed the paper check with maxerr %v", tc.delta, got)
		}
	}
}

func TestReconcile(t *testing.T) {
	before, err := parseExposition([]byte("# HELP x\nmbserve_cache_hits 10\nmbserve_cache_misses 2\nmbserve_sweep_points_total 100\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition([]byte("mbserve_cache_hits 40\nmbserve_cache_misses 2\nmbserve_sweep_points_total 160\n" +
		`mbserve_peer_requests_total{peer="a",result="ok"} 3` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := diffFleet([]sample{before}, []sample{after})
	analyze, _ := findWorkload("analyze-hot")
	sweeps, _ := findWorkload("explore-cold")
	if err := reconcile(analyze, d, 30, 0); err != nil {
		t.Errorf("matching analyze counters rejected: %v", err)
	}
	if err := reconcile(analyze, d, 31, 0); err == nil {
		t.Error("31 requests sent against 30 lookups accepted")
	}
	if err := reconcile(sweeps, d, 2, 59); err == nil {
		t.Error("59 points received against 60 progress ticks accepted")
	}
	if got := d.sum("mbserve_peer_requests_total", `result="ok"`); got != 3 {
		t.Errorf("peer ok requests = %v, want 3", got)
	}
}

// A short run of every workload prints every metric BENCHMARK.json
// names, with its unit, in the mode that owns it.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("launches mbserve processes")
	}
	spec := readBenchmarkJSON(t)
	bin := filepath.Join(t.TempDir(), "mbserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/mbserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build mbserve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for trace, want := range map[int][]benchMetric{0: spec.EndToEnd, 1: spec.PerLayer} {
			if trace == 0 && w.name != "analyze-hot" {
				continue // the trace-1 run measures the same end-to-end phase
			}
			var out, errb bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", string(rune('0' + trace)),
				"--mbserve", bin, "--root", t.TempDir()}
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.name, trace, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: result %+v", w.name, trace, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if !strings.Contains(out.String(), "host: {") {
				t.Errorf("%s: no host fingerprint in the output", w.name)
			}
		}
	}
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) struct{ EndToEnd, PerLayer []benchMetric } {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return struct{ EndToEnd, PerLayer []benchMetric }{spec.EndToEnd, spec.PerLayer}
}

func TestSegmentRate(t *testing.T) {
	// 100 completions at 10/s for the first half, then a one-second
	// stall, then 10/s again: the median segment rate stays 10/s.
	var at []float64
	for i := 1; i <= 50; i++ {
		at = append(at, float64(i)/10)
	}
	for i := 1; i <= 50; i++ {
		at = append(at, 6+float64(i)/10)
	}
	if got := segmentRate(at, 10); got != 10 {
		t.Errorf("segmentRate = %v, want 10", got)
	}
	if got := segmentRate(at[:5], 10); got != 5/0.5 {
		t.Errorf("short series: segmentRate = %v, want %v", got, 5/0.5)
	}
}
