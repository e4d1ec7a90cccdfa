package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"multibus/internal/compute"
	"multibus/internal/scenario"
)

// span is one timed call at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int    `json:"req"`    // replayed request index; -1 for a peer's shard work
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Work   int64  `json:"work,omitempty"` // simulated cycles, or points in a batch
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the untraced replay pass runs the same code.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

type spanKey struct{}

type spanRef struct {
	id  int64
	req int
}

// start opens a span as a child of the span in ctx (a root for
// request req when ctx carries none) and returns the context carrying
// it plus the function that closes it with a work count.
func (t *tracer) start(ctx context.Context, name string, req int) (context.Context, func(work int64)) {
	if !t.on.Load() {
		return ctx, func(int64) {}
	}
	parent, ok := ctx.Value(spanKey{}).(spanRef)
	if ok {
		req = parent.req
	}
	s := span{ID: t.next.Add(1), Parent: parent.id, Req: req, Name: name, Start: int64(time.Since(t.t0))}
	ctx = context.WithValue(ctx, spanKey{}, spanRef{id: s.ID, req: req})
	return ctx, func(work int64) {
		s.End = int64(time.Since(t.t0))
		s.Work = work
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// timeCall records fn as one span named name under ctx.
func (t *tracer) timeCall(ctx context.Context, name string, fn func()) {
	_, end := t.start(ctx, name, -1)
	fn()
	end(0)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fh)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// timedBackend is the timing decorator around a compute backend: one
// span per Analyze, Simulate and SweepPoint call. Use newTimedBackend,
// which also keeps the BatchSweeper seam when the wrapped backend has
// it, so sweeps take the same path as without the decorator.
type timedBackend struct {
	inner compute.Backend
	tr    *tracer
}

// timedBatchBackend is timedBackend over a backend that also
// implements compute.BatchSweeper (the cluster routing backend).
type timedBatchBackend struct {
	*timedBackend
	batch compute.BatchSweeper
}

func newTimedBackend(inner compute.Backend, tr *tracer) compute.Backend {
	t := &timedBackend{inner: inner, tr: tr}
	if bs, ok := inner.(compute.BatchSweeper); ok {
		return &timedBatchBackend{timedBackend: t, batch: bs}
	}
	return t
}

func (b *timedBackend) Analyze(ctx context.Context, built *scenario.Built) (*compute.Analysis, error) {
	ctx, end := b.tr.start(ctx, "compute.analyze", -1)
	a, err := b.inner.Analyze(ctx, built)
	end(0)
	return a, err
}

func (b *timedBackend) Simulate(ctx context.Context, built *scenario.Built) (*compute.SimResult, error) {
	ctx, end := b.tr.start(ctx, "compute.simulate", -1)
	res, err := b.inner.Simulate(ctx, built)
	var cycles int64
	if res != nil {
		cycles = int64(res.Cycles)
	}
	end(cycles)
	return res, err
}

func (b *timedBackend) SweepPoint(ctx context.Context, jb compute.PointJob) (compute.Point, error) {
	ctx, end := b.tr.start(ctx, "compute.sweep_point", -1)
	pt, err := b.inner.SweepPoint(ctx, jb)
	end(1)
	return pt, err
}

func (b *timedBatchBackend) SweepBatch(ctx context.Context, batch compute.SweepBatch) error {
	ctx, end := b.tr.start(ctx, "compute.sweep_batch", -1)
	err := b.batch.SweepBatch(ctx, batch)
	end(int64(len(batch.Jobs)))
	return err
}
