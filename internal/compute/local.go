package compute

import (
	"context"

	"multibus/internal/analytic"
	"multibus/internal/scenario"
	"multibus/internal/sim"
)

// LocalBackend evaluates scenarios in-process: the closed forms through
// internal/analytic and the protocol simulator through internal/sim,
// both driven straight from the built scenario. It is the path every
// single instance takes and the path every cluster instance takes for
// the keys it owns.
type LocalBackend struct{}

// Local returns the in-process backend. It is stateless, so callers
// may share one or make their own.
func Local() *LocalBackend { return &LocalBackend{} }

// Analyze implements Backend.
func (*LocalBackend) Analyze(ctx context.Context, built *scenario.Built) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := built.CanAnalyze(); err != nil {
		return nil, err
	}
	x, err := built.Model.X(built.Scenario.R)
	if err != nil {
		return nil, err
	}
	s, err := analytic.Summarize(built.Network, x)
	if err != nil {
		return nil, err
	}
	return &Analysis{
		X:                    x,
		Bandwidth:            s.Bandwidth,
		CrossbarBandwidth:    s.CrossbarBandwidth,
		BusUtilization:       s.BusUtilization,
		PerformanceCostRatio: s.PerformanceCostRatio,
	}, nil
}

// Simulate implements Backend.
func (*LocalBackend) Simulate(ctx context.Context, built *scenario.Built) (*SimResult, error) {
	cfg, err := built.SimConfig()
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &SimResult{
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
	}, nil
}

// SweepPoint implements Backend: the analytic bandwidth at the point
// and, with WithSim, an independently seeded simulator cross-check.
// Crossbar points use the crossbar formula on the model's X and are
// never simulated (the reference curve has no bus contention). The
// job's precomputed X and Structure are used when present — the sweep
// enumerator's per-combination sharing — and derived on demand when a
// bare job arrives over the wire.
func (*LocalBackend) SweepPoint(ctx context.Context, jb PointJob) (Point, error) {
	built := jb.Built
	x := jb.X
	if !jb.XValid {
		var err error
		x, err = built.Model.X(built.Scenario.R)
		if err != nil {
			return Point{}, err
		}
	}
	var (
		bw  float64
		err error
	)
	if built.Crossbar {
		bw, err = analytic.BandwidthCrossbar(built.Network.M(), x)
	} else {
		structure := jb.Structure
		if structure == nil {
			structure, err = analytic.Classify(built.Network)
			if err != nil {
				return Point{}, err
			}
		}
		bw, err = analytic.BandwidthStructure(structure, built.Network.B(), x)
	}
	if err != nil {
		return Point{}, err
	}
	pt := Point{
		Scheme: jb.Axis, Model: jb.Model,
		N: built.Network.N(), B: built.Network.B(), R: built.Scenario.R,
		X: x, Bandwidth: bw,
	}
	if jb.WithSim && !built.Crossbar {
		cfg, err := built.SimConfig()
		if err != nil {
			return Point{}, err
		}
		res, err := sim.RunContext(ctx, cfg)
		if err != nil {
			return Point{}, err
		}
		pt.Simulated = true
		pt.SimBandwidth = res.Bandwidth
		pt.SimCI95 = res.BandwidthCI95
	}
	return pt, nil
}
