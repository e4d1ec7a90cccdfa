package compute

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"multibus"
	"multibus/internal/cache"
	"multibus/internal/scenario"
)

func buildScenario(t *testing.T, s scenario.Scenario) *scenario.Built {
	t.Helper()
	built, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return built
}

var analyzeScenario = scenario.Scenario{
	Network: scenario.Network{Scheme: scenario.SchemeFull, N: 16, B: 8},
	Model:   scenario.Model{Kind: scenario.ModelHier},
	R:       1.0,
}

// facadeSimOptions spells a canonical sim block out as façade options:
// the differential oracle for LocalBackend.Simulate, which configures
// the engine from Built.SimConfig instead. A nil block means the
// canonical defaults.
func facadeSimOptions(s *scenario.Sim) []multibus.SimOption {
	if s == nil {
		def := scenario.DefaultSim()
		s = &def
	}
	opts := []multibus.SimOption{
		multibus.WithCycles(s.Cycles),
		multibus.WithWarmup(s.Warmup),
		multibus.WithBatches(s.Batches),
		multibus.WithModuleServiceCycles(s.ServiceCycles),
		multibus.WithSeed(s.Seed),
	}
	if s.Resubmit {
		opts = append(opts, multibus.WithResubmit())
	}
	if s.RoundRobin {
		opts = append(opts, multibus.WithRoundRobinMemoryArbiters())
	}
	return opts
}

// TestLocalAnalyzeMatchesFacade pins the in-process backend to the
// public façade field by field: Analyze against multibus.Analyze, and
// Simulate against multibus.SimulateContext driven by the same sim
// block spelled out as options.
func TestLocalAnalyzeMatchesFacade(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		sim  *scenario.Sim // nil: the canonical default block
	}{
		{name: "default"},
		{name: "resubmit", sim: &scenario.Sim{Cycles: 3000, Seed: 5, Resubmit: true}},
		{name: "roundRobin", sim: &scenario.Sim{Cycles: 3000, Seed: 9, RoundRobin: true}},
		{name: "serviceCycles", sim: &scenario.Sim{Cycles: 3000, Warmup: 50, Batches: 10, Seed: 3, ServiceCycles: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := analyzeScenario
			s.Sim = tc.sim
			built := buildScenario(t, s)

			got, err := Local().Analyze(ctx, built)
			if err != nil {
				t.Fatal(err)
			}
			want, err := multibus.Analyze(built.Network, built.Model, built.Scenario.R)
			if err != nil {
				t.Fatal(err)
			}
			if *got != (Analysis{
				X:                    want.X,
				Bandwidth:            want.Bandwidth,
				CrossbarBandwidth:    want.CrossbarBandwidth,
				BusUtilization:       want.BusUtilization,
				PerformanceCostRatio: want.PerformanceCostRatio,
			}) {
				t.Errorf("LocalBackend.Analyze = %+v, façade = %+v", got, want)
			}

			gotSim, err := Local().Simulate(ctx, built)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := built.Workload()
			if err != nil {
				t.Fatal(err)
			}
			res, err := multibus.SimulateContext(ctx, built.Network, gen, facadeSimOptions(built.Scenario.Sim)...)
			if err != nil {
				t.Fatal(err)
			}
			wantSim := SimResult{
				Cycles:                res.Cycles,
				Mode:                  res.Mode.String(),
				Bandwidth:             res.Bandwidth,
				BandwidthCI95:         res.BandwidthCI95,
				AcceptanceProbability: res.AcceptanceProbability,
				BusUtilization:        res.BusUtilization,
				MeanWaitCycles:        res.MeanWaitCycles,
				Offered:               res.Offered,
				Accepted:              res.Accepted,
				NewRequests:           res.NewRequests,
				MemoryBlocked:         res.MemoryBlocked,
				BusBlocked:            res.BusBlocked,
				StrandedBlocked:       res.StrandedBlocked,
				ModuleBusyBlocked:     res.ModuleBusyBlocked,
				JainFairness:          res.JainFairness(),
			}
			if *gotSim != wantSim {
				t.Errorf("LocalBackend.Simulate = %+v\nfaçade               = %+v", *gotSim, wantSim)
			}
		})
	}
}

func TestLocalAnalyzeRejectsCrossbar(t *testing.T) {
	s := analyzeScenario
	s.Network.Scheme = scenario.SchemeCrossbar
	built := buildScenario(t, s)
	if _, err := Local().Analyze(context.Background(), built); err == nil {
		t.Fatal("crossbar analyze succeeded; want classified error")
	}
}

// TestSweepPointBareMatchesPrecomputed pins the property cluster
// forwarding relies on: a bare job (no precomputed X, no Structure —
// what a peer reconstructs from the wire) evaluates bit-identically to
// the enumerator's accelerated job.
func TestSweepPointBareMatchesPrecomputed(t *testing.T) {
	s := analyzeScenario
	s.Sim = &scenario.Sim{Cycles: 2000, Seed: 7}
	built := buildScenario(t, s)
	x, err := built.Model.X(built.Scenario.R)
	if err != nil {
		t.Fatal(err)
	}
	fast := PointJob{Built: built, Axis: "full", Model: "hier", WithSim: true, X: x, XValid: true}
	bare := PointJob{Built: built, Axis: "full", Model: "hier", WithSim: true}
	a, err := Local().SweepPoint(context.Background(), fast)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Local().SweepPoint(context.Background(), bare)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("precomputed job = %+v, bare job = %+v", a, b)
	}
	if fast.Key() != bare.Key() {
		t.Errorf("job keys differ: %q vs %q", fast.Key(), bare.Key())
	}
}

// TestPointJSONRoundTripByteIdentical pins the wire property the
// cluster layer depends on: a Point decoded from a peer's JSON
// re-encodes to the same bytes (encoding/json round-trips float64
// exactly via the shortest-representation rule).
func TestPointJSONRoundTripByteIdentical(t *testing.T) {
	built := buildScenario(t, analyzeScenario)
	pt, err := Local().SweepPoint(context.Background(), PointJob{Built: built, Axis: "full", Model: "hier"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Point
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip changed bytes:\n first = %s\nsecond = %s", first, second)
	}
}

// countingBackend wraps the local backend, counting SweepPoint calls.
type countingBackend struct {
	Backend
	calls atomic.Int64
}

func (c *countingBackend) SweepPoint(ctx context.Context, jb PointJob) (Point, error) {
	c.calls.Add(1)
	return c.Backend.SweepPoint(ctx, jb)
}

func TestMemoPointComputesOncePerKey(t *testing.T) {
	memo, err := cache.New(16)
	if err != nil {
		t.Fatal(err)
	}
	built := buildScenario(t, analyzeScenario)
	jb := PointJob{Built: built, Axis: "full", Model: "hier"}
	be := &countingBackend{Backend: Local()}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := MemoPoint(context.Background(), memo, be, jb); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := be.calls.Load(); got != 1 {
		t.Errorf("8 concurrent MemoPoint calls computed %d times, want 1", got)
	}
}

func TestForwardedMarker(t *testing.T) {
	ctx := context.Background()
	if Forwarded(ctx) {
		t.Fatal("fresh context reports forwarded")
	}
	if !Forwarded(WithForwarded(ctx)) {
		t.Fatal("marked context does not report forwarded")
	}
}
