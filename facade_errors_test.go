package multibus

import (
	"context"
	"errors"
	"testing"
	"time"
)

func optionTestFixture(t *testing.T) (*Network, Workload) {
	t.Helper()
	nw, err := NewFullNetwork(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewUniformWorkload(8, 8, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return nw, w
}

func TestSimOptionValidation(t *testing.T) {
	nw, w := optionTestFixture(t)
	cases := []struct {
		name string
		opt  SimOption
	}{
		{"WithCycles(0)", WithCycles(0)},
		{"WithCycles(-100)", WithCycles(-100)},
		{"WithBatches(0)", WithBatches(0)},
		{"WithBatches(-3)", WithBatches(-3)},
		{"WithBatches(1)", WithBatches(1)},
		{"WithModuleServiceCycles(0)", WithModuleServiceCycles(0)},
		{"WithModuleServiceCycles(-2)", WithModuleServiceCycles(-2)},
		{"WithWarmup(-1)", WithWarmup(-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Simulate(nw, w, tc.opt)
			if !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("Simulate with %s = (%v, %v), want ErrInvalidOption", tc.name, res, err)
			}
			if _, err := SimulateReplicated(nw, w, 3, tc.opt); !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("SimulateReplicated with %s = %v, want ErrInvalidOption", tc.name, err)
			}
		})
	}
}

func TestSimOptionErrorsAccumulate(t *testing.T) {
	nw, w := optionTestFixture(t)
	_, err := Simulate(nw, w, WithCycles(-1), WithBatches(0))
	if !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("err = %v, want ErrInvalidOption", err)
	}
	for _, frag := range []string{"WithCycles(-1)", "WithBatches(0)"} {
		if !contains(err.Error(), frag) {
			t.Errorf("joined error %q does not mention %s", err, frag)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestValidOptionsStillWork(t *testing.T) {
	nw, w := optionTestFixture(t)
	res, err := Simulate(nw, w,
		WithCycles(500), WithWarmup(50), WithBatches(5),
		WithModuleServiceCycles(2), WithSeed(3))
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if res.Cycles != 500 {
		t.Errorf("cycles = %d, want 500", res.Cycles)
	}
}

func TestNilArgumentSentinel(t *testing.T) {
	nw, w := optionTestFixture(t)
	model, err := NewUniformModel(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(nil, model, 1.0); !errors.Is(err, ErrNilArgument) {
		t.Errorf("Analyze(nil, model) = %v, want ErrNilArgument", err)
	}
	if _, err := Analyze(nw, nil, 1.0); !errors.Is(err, ErrNilArgument) {
		t.Errorf("Analyze(nw, nil) = %v, want ErrNilArgument", err)
	}
	if _, err := Simulate(nil, w); !errors.Is(err, ErrNilArgument) {
		t.Errorf("Simulate(nil, w) = %v, want ErrNilArgument", err)
	}
	if _, err := Simulate(nw, nil); !errors.Is(err, ErrNilArgument) {
		t.Errorf("Simulate(nw, nil) = %v, want ErrNilArgument", err)
	}
	if _, err := ExactAnalyze(nil, model, 1.0); !errors.Is(err, ErrNilArgument) {
		t.Errorf("ExactAnalyze(nil, model) = %v, want ErrNilArgument", err)
	}
	if _, err := BandwidthTrajectory(nil, model, 1, 0.1, []float64{0}); !errors.Is(err, ErrNilArgument) {
		t.Errorf("BandwidthTrajectory(nil, model) = %v, want ErrNilArgument", err)
	}
}

func TestDimensionMismatchSentinelAndAlias(t *testing.T) {
	nw, _ := optionTestFixture(t)
	model, err := NewUniformModel(16) // 16 modules vs the 8-module network
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(nw, model, 1.0)
	if !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("Analyze mismatch = %v, want ErrDimensionMismatch", err)
	}
}

func TestAnalyzeContextCanceled(t *testing.T) {
	nw, _ := optionTestFixture(t)
	model, err := NewUniformModel(8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeContext(ctx, nw, model, 1.0); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeContext canceled = %v, want context.Canceled", err)
	}
	if _, err := AnalyzeContext(context.Background(), nw, model, 1.0); err != nil {
		t.Errorf("AnalyzeContext background = %v, want nil", err)
	}
}

func TestSimulateContextDeadline(t *testing.T) {
	nw, w := optionTestFixture(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := SimulateContext(ctx, nw, w, WithCycles(1_000_000)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("SimulateContext past deadline = %v, want context.DeadlineExceeded", err)
	}
}
