package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"multibus/internal/analytic"
	"multibus/internal/cache"
	"multibus/internal/cluster"
	"multibus/internal/compute"
	"multibus/internal/scenario"
	"multibus/internal/service"
	"multibus/internal/sweep"
)

// replayTarget is an in-process server (or cluster) the replay drives:
// the front handler, the front's cache, and a stop function that
// returns once every listener goroutine has ended.
type replayTarget struct {
	front http.Handler
	cache *cache.Cache
	stop  func()
}

func newReplayTarget(w *workload, tr *tracer) (*replayTarget, error) {
	if !w.cluster {
		srv, err := service.New(service.Options{Backend: newTimedBackend(compute.Local(), tr)})
		if err != nil {
			return nil, err
		}
		return &replayTarget{front: srv.Handler(), cache: srv.Cache(), stop: func() {}}, nil
	}
	return newReplayCluster(tr)
}

// newReplayCluster starts three in-process instances with a static
// ring on the fleet's fixed loopback addresses, so the keys partition as
// they did over TCP. The front is driven through its handler;
// shards it forwards travel over real TCP to the other two. Only the
// routing backend is decorated: the front records one
// compute.sweep_batch span per sweep, the peers one compute.sweep_point
// span per forwarded point.
func newReplayCluster(tr *tracer) (*replayTarget, error) {
	addrs, err := fleetAddrs(3)
	if err != nil {
		return nil, err
	}
	lns := make([]net.Listener, len(addrs))
	urls := make([]string, len(addrs))
	closeAll := func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			closeAll()
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + a
	}
	peerTransport := &http.Transport{MaxIdleConnsPerHost: 8}
	var (
		servers []*http.Server
		wg      sync.WaitGroup
		target  = &replayTarget{}
	)
	for i := range lns {
		cb, err := cluster.New(cluster.Options{
			Self:  urls[i],
			Peers: urls,
			HTTP:  &http.Client{Transport: peerTransport},
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		srv, err := service.New(service.Options{Backend: newTimedBackend(cb, tr)})
		if err != nil {
			closeAll()
			return nil, err
		}
		if i == 0 {
			target.front, target.cache = srv.Handler(), srv.Cache()
		}
		hs := &http.Server{Handler: srv.Handler()}
		servers = append(servers, hs)
		wg.Add(1)
		go func(ln net.Listener) {
			defer wg.Done()
			hs.Serve(ln) // returns http.ErrServerClosed once stopped
		}(lns[i])
	}
	target.stop = func() {
		for _, hs := range servers {
			hs.Close()
		}
		wg.Wait()
		peerTransport.CloseIdleConnections()
	}
	return target, nil
}

// replayPass is one pass over the replay sequence.
type replayPass struct {
	handlerWall time.Duration // summed ServeHTTP time
	mallocs     uint64
	allocBytes  uint64
	spans       []span
}

// replaySequence is the first w.replay requests of the timed corpus,
// cycling for a hot workload: the same requests the closed loop sends
// first.
func replaySequence(w *workload, p plan) []request {
	out := make([]request, w.replay)
	for i := range out {
		out[i] = p.timed[i%len(p.timed)]
	}
	return out
}

// runReplay serves every request in-process once, on a fresh target
// warmed like the real fleet, counting allocations. With traced set,
// every request runs under a service.handler root span, and the direct
// layer probes follow once all requests are served. Every body must
// equal the oracle's.
func runReplay(w *workload, p plan, reqs []request, want [][]byte, traced bool) (*replayPass, error) {
	tr := newTracer(false)
	target, err := newReplayTarget(w, tr)
	if err != nil {
		return nil, err
	}
	defer target.stop()
	for _, rq := range p.warm {
		if status, body := serveInProcess(context.Background(), target.front, rq); status != http.StatusOK {
			return nil, fmt.Errorf("replay warm-up: status %d: %.200s", status, body)
		}
	}
	tr.on.Store(traced)
	pass := &replayPass{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, rq := range reqs {
		ctx, end := tr.start(context.Background(), "service.handler", i)
		t0 := time.Now()
		status, body := serveInProcess(ctx, target.front, rq)
		pass.handlerWall += time.Since(t0)
		end(0)
		if status != http.StatusOK || !bytes.Equal(body, want[i]) {
			return nil, fmt.Errorf("replay request %d: status %d, body differs from the in-process reference at byte %d",
				i, status, firstDiff(body, want[i]))
		}
	}
	runtime.ReadMemStats(&m1)
	pass.mallocs = m1.Mallocs - m0.Mallocs
	pass.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if traced {
		for i, rq := range reqs {
			if err := probeLayers(tr, target.cache, rq, i); err != nil {
				return nil, fmt.Errorf("replay request %d: %w", i, err)
			}
		}
	}
	pass.spans = tr.snapshot()
	return pass, nil
}

func serveInProcess(ctx context.Context, h http.Handler, rq request) (int, []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body)).WithContext(ctx)
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// probeLayers calls the scenario, cache, analytic and sweep layers
// directly on request i's inputs, one span per call, under a
// replay.probe root. Only layers on the request's serving path are
// probed: a cache hit never classifies, so analyze requests skip the
// analytic probes.
func probeLayers(tr *tracer, c *cache.Cache, rq request, i int) error {
	ctx, end := tr.start(context.Background(), "replay.probe", i)
	defer end(0)
	if rq.path == "/v1/sweep" {
		return probeSweep(ctx, tr, c, rq.body)
	}
	var (
		sc    scenario.Scenario
		built *scenario.Built
		key   string
		err   error
	)
	tr.timeCall(ctx, "scenario.parse", func() { sc, err = scenario.Parse(rq.body) })
	if err != nil {
		return err
	}
	tr.timeCall(ctx, "scenario.build", func() { built, err = sc.Build() })
	if err != nil {
		return err
	}
	tr.timeCall(ctx, "scenario.key", func() {
		if rq.path == "/v1/simulate" {
			key = built.SimulateKey()
		} else {
			key = built.AnalyzeKey()
		}
	})
	var hit bool
	tr.timeCall(ctx, "cache.lookup", func() { _, hit = c.Get(key) })
	if !hit {
		return fmt.Errorf("key %q not resident right after serving it", key)
	}
	return nil
}

// probeSweep runs sweep.Run on the request's grid with the local
// backend behind the timing decorator and a fresh memo (the sweep.run
// span, its compute.sweep_point children), then repeats the grid's
// scenario, classification, bandwidth, key and lookup steps one call
// at a time.
func probeSweep(ctx context.Context, tr *tracer, c *cache.Cache, body []byte) error {
	var req service.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	schemes := make([]scenario.Network, len(req.Schemes))
	for i, name := range req.Schemes {
		nw, err := scenario.SweepScheme(name)
		if err != nil {
			return err
		}
		schemes[i] = nw
	}
	memo, err := cache.New(service.DefaultCacheSize)
	if err != nil {
		return err
	}
	runCtx, end := tr.start(ctx, "sweep.run", -1)
	_, err = sweep.Run(sweep.Spec{
		Ns: req.Ns, Bs: req.Bs, Rs: req.Rs, Schemes: schemes, Hierarchical: req.Hierarchical,
		Memo: memo, Workers: 1, Context: runCtx, Backend: newTimedBackend(compute.Local(), tr),
	})
	end(0)
	if err != nil {
		return err
	}
	for _, tmpl := range schemes {
		for _, n := range req.Ns {
			for _, b := range req.Bs {
				if err := probeCombination(ctx, tr, c, req, tmpl, n, b); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func probeCombination(ctx context.Context, tr *tracer, c *cache.Cache, req service.SweepRequest, tmpl scenario.Network, n, b int) error {
	nw := tmpl
	nw.N, nw.B = n, b
	// The sweep's default model axis: hier when Hierarchical is set.
	model := scenario.Model{Kind: scenario.ModelUniform}
	if req.Hierarchical {
		model.Kind = scenario.ModelHier
	}
	s := scenario.Scenario{Network: nw, Model: model, R: req.Rs[0], Sim: &scenario.Sim{}}
	var (
		base      *scenario.Built
		structure *analytic.Structure
		err       error
	)
	tr.timeCall(ctx, "scenario.build", func() { base, err = s.Build() })
	if errors.Is(err, scenario.ErrUnsatisfiable) {
		return nil // the sweep skips it too
	}
	if err != nil {
		return err
	}
	tr.timeCall(ctx, "analytic.classify", func() { structure, err = analytic.Classify(base.Network) })
	if err != nil {
		return err
	}
	axis := tmpl.AxisName()
	for _, r := range req.Rs {
		bl, err := base.WithRate(r)
		if err != nil {
			return err
		}
		x, err := bl.Model.X(r)
		if err != nil {
			return err
		}
		tr.timeCall(ctx, "analytic.bandwidth", func() { _, err = analytic.BandwidthStructure(structure, b, x) })
		if err != nil {
			return err
		}
		var key string
		tr.timeCall(ctx, "scenario.key", func() { key = bl.SweepPointKey(axis, false) })
		tr.timeCall(ctx, "cache.lookup", func() { c.Get(key) })
	}
	return nil
}

// measureLayers runs the traced replay and derives the per-layer
// metrics, adding the ones that come from the end-to-end run's
// /metrics diff and process accounting. The spans are written to
// spans.jsonl in dir.
func measureLayers(w *workload, p plan, e2e *e2eRun, dir string) ([]metric, error) {
	runtime.GOMAXPROCS(replayGOMAXPROCS)
	reqs := replaySequence(w, p)
	o, err := newOracle()
	if err != nil {
		return nil, err
	}
	want := make([][]byte, len(reqs))
	for i, rq := range reqs {
		status, body := o.serve(rq)
		if status != http.StatusOK {
			return nil, fmt.Errorf("oracle answered %d to replay request %d", status, i)
		}
		want[i] = bytes.Clone(body)
	}
	off, err := runReplay(w, p, reqs, want, false)
	if err != nil {
		return nil, err
	}
	on, err := runReplay(w, p, reqs, want, true)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), on.spans); err != nil {
		return nil, err
	}
	n := len(reqs)
	served, probed := splitProbes(on.spans)
	st, pr := summarize(served), summarize(probed)
	handler := st.mean("service.handler")
	ms := []metric{
		{Name: "service.handler_us", Unit: "us", Value: us(handler), N: st.count("service.handler")},
		{Name: "service.self_us", Unit: "us", Value: us(st.selfMean("service.handler")), N: st.count("service.handler"),
			Note: "handler minus its backend child spans"},
		{Name: "service.allocs_per_req", Unit: "count", Value: float64(off.mallocs) / float64(n), N: n,
			Note: "untraced pass, in-process peers included"},
		{Name: "service.alloc_kb_per_req", Unit: "KiB", Value: float64(off.allocBytes) / 1024 / float64(n), N: n},
	}
	// Backend spans come from serving the requests; the scenario, cache,
	// analytic and sweep figures from the direct probes.
	for _, l := range []struct {
		name, span, unit string
		from             spanStats
	}{
		{"scenario.parse_us", "scenario.parse", "us", pr},
		{"scenario.build_us", "scenario.build", "us", pr},
		{"scenario.key_us", "scenario.key", "us", pr},
		{"cache.lookup_us", "cache.lookup", "us", pr},
		{"compute.analyze_us", "compute.analyze", "us", st},
		{"compute.sweep_point_us", "compute.sweep_point", "us", st},
		{"compute.simulate_ms", "compute.simulate", "ms", st},
		{"analytic.classify_us", "analytic.classify", "us", pr},
		{"analytic.bandwidth_us", "analytic.bandwidth", "us", pr},
		{"sweep.run_ms", "sweep.run", "ms", pr},
		{"cluster.sweep_batch_ms", "compute.sweep_batch", "ms", st},
	} {
		v := l.from.mean(l.span)
		ms = append(ms, metric{Name: l.name, Unit: l.unit, Value: inUnit(v, l.unit), N: l.from.count(l.span),
			Note: "mean per call; 0 = not on this workload's path"})
	}
	ms = append(ms,
		metric{Name: "sweep.plan_self_ms", Unit: "ms", Value: inUnit(pr.selfMean("sweep.run"), "ms"), N: pr.count("sweep.run"),
			Note: "sweep.Run minus its point spans"},
		metric{Name: "sim.ns_per_cycle", Unit: "ns", Value: st.perWork("compute.simulate"), N: st.count("compute.simulate")},
		metric{Name: "trace.overhead_frac", Unit: "ratio", Value: on.handlerWall.Seconds()/off.handlerWall.Seconds() - 1, N: n,
			Note: "replay handler time, spans on vs off"},
	)
	ms = append(ms, counterMetrics(e2e, st.median("service.handler"))...)
	return ms, nil
}

// counterMetrics are the per-layer figures taken from outside the
// program during the end-to-end phase: /metrics diffs and /proc.
func counterMetrics(e2e *e2eRun, handlerP50 time.Duration) []metric {
	d := e2e.diff
	sent := float64(len(e2e.load.replies))
	hits := d.sum("mbserve_cache_hits")
	lookups := d.lookups()
	waits := d.sum("mbserve_queue_wait_seconds_count")
	frontPoints := d[0].sum("mbserve_sweep_points_total")
	peerPoints := d.sum("mbserve_sweep_points_total") - frontPoints
	peerReqs := d.sum("mbserve_peer_requests_total")
	p50 := time.Duration(quantile(e2e.latencies, 0.5) * float64(time.Millisecond))
	genCPU := e2e.load.genCPU.Seconds()
	return []metric{
		{Name: "service.queue_wait_ms", Unit: "ms", N: int(waits),
			Value: ratio(d.sum("mbserve_queue_wait_seconds_sum")*1000, waits),
			Note:  "admission wait per admitted computation; 0 = nothing admitted"},
		{Name: "cache.hit_ratio", Unit: "ratio", Value: ratio(hits, lookups), N: int(lookups)},
		{Name: "cache.evictions_per_req", Unit: "count", Value: d.sum("mbserve_cache_evictions") / sent, N: int(sent)},
		{Name: "cluster.forward_frac", Unit: "ratio", Value: ratio(peerPoints, frontPoints), N: int(frontPoints),
			Note: "share of swept points computed by a peer"},
		{Name: "cluster.peer_errors", Unit: "count", Value: peerReqs - d.sum("mbserve_peer_requests_total", `result="ok"`),
			N: int(peerReqs)},
		{Name: "transport.overhead_us", Unit: "us", Value: us(p50 - handlerP50), N: len(e2e.latencies),
			Note: "end-to-end p50 minus the replay's handler p50"},
		{Name: "loadgen.cpu_frac", Unit: "ratio", Value: genCPU / (genCPU + e2e.serverCPU.Seconds()), N: int(sent),
			Note: "generator CPU over generator+server CPU"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func inUnit(d time.Duration, unit string) float64 {
	if unit == "ms" {
		return float64(d) / float64(time.Millisecond)
	}
	return us(d)
}

// splitProbes separates the spans recorded while serving requests
// (handler roots, and the peers' spans of a cluster) from those under a
// replay.probe root.
func splitProbes(spans []span) (served, probed []span) {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		root := s
		for root.Parent != 0 {
			root = byID[root.Parent]
		}
		if root.Name == "replay.probe" {
			probed = append(probed, s)
		} else {
			served = append(served, s)
		}
	}
	return served, probed
}

// spanStats indexes a pass's spans by name and parent.
type spanStats struct {
	byName   map[string][]span
	children map[int64][]span
}

func summarize(spans []span) spanStats {
	st := spanStats{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		st.byName[s.Name] = append(st.byName[s.Name], s)
		if s.Parent != 0 {
			st.children[s.Parent] = append(st.children[s.Parent], s)
		}
	}
	return st
}

func (st spanStats) count(name string) int { return len(st.byName[name]) }

func (st spanStats) median(name string) time.Duration {
	ss := st.byName[name]
	ds := make([]float64, len(ss))
	for i, s := range ss {
		ds[i] = float64(s.dur())
	}
	if len(ds) == 0 {
		return 0
	}
	return time.Duration(median(ds))
}

func (st spanStats) mean(name string) time.Duration {
	ss := st.byName[name]
	if len(ss) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range ss {
		total += s.dur()
	}
	return total / time.Duration(len(ss))
}

// selfMean is the mean self time of the named spans: each span's
// duration minus the part of it its direct children cover.
func (st spanStats) selfMean(name string) time.Duration {
	ss := st.byName[name]
	if len(ss) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range ss {
		total += s.dur() - covered(s, st.children[s.ID])
	}
	return total / time.Duration(len(ss))
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// perWork is the named spans' total time divided by their total work
// count, in nanoseconds (simulated cycles for compute.simulate).
func (st spanStats) perWork(name string) float64 {
	var ns, work int64
	for _, s := range st.byName[name] {
		ns += s.End - s.Start
		work += s.Work
	}
	if work == 0 {
		return 0
	}
	return float64(ns) / float64(work)
}
