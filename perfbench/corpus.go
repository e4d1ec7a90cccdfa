package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"multibus/internal/scenario"
	"multibus/internal/service"
)

// request is one pre-encoded request body and the route it is sent to.
type request struct {
	path string
	body []byte
}

// workload is one traffic mix; README.md records why each exists. Its inputs are a pure function of the
// seed: warm-up requests (sent untimed, before the run) and the timed
// sequence. A hot workload cycles through its timed corpus, which the
// warm-up has cached; a cold one never repeats a request, so the timed
// corpus must be longer than any run can consume.
type workload struct {
	name    string
	path    string
	cluster bool // three mbserve instances behind one front
	hot     bool // timed requests repeat warmed scenarios (all cache hits)
	// gen returns the warm-up requests and the timed requests for a
	// run of the given length.
	gen func(rng *rand.Rand, seconds int) (warm, timed [][]byte)
	// replay is how many timed requests the traced replay serves.
	replay int
	// tail is the percentile latency_tail_ms reports: the highest of
	// p99 and p95 that leaves at least ten samples beyond it at the
	// workload's usual rate over a 10 s run.
	tail float64
}

var workloads = []*workload{
	{
		name:   "analyze-hot",
		path:   "/v1/analyze",
		hot:    true,
		gen:    genAnalyzeHot,
		replay: 1024,
		tail:   0.99,
	},
	{
		name:   "explore-cold",
		path:   "/v1/sweep",
		gen:    genSweeps,
		replay: 24,
		tail:   0.99,
	},
	{
		name:   "simulate-cold",
		path:   "/v1/simulate",
		gen:    genSimulate,
		replay: 24,
		tail:   0.95,
	},
	{
		name:    "cluster-sweep",
		path:    "/v1/sweep",
		cluster: true,
		gen:     genClusterSweeps,
		replay:  12,
		tail:    0.95,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// newRand derives the workload's input stream from the seed; the
// workload name is mixed in so two workloads never share inputs.
func newRand(w *workload, seed int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

// plan is a workload's generated inputs.
type plan struct {
	warm, timed []request
}

func newPlan(w *workload, seed int64, seconds int) plan {
	warm, timed := w.gen(newRand(w, seed), seconds)
	wrap := func(bodies [][]byte) []request {
		out := make([]request, len(bodies))
		for i, b := range bodies {
			out[i] = request{path: w.path, body: b}
		}
		return out
	}
	return plan{warm: wrap(warm), timed: wrap(timed)}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the corpus types always encode
	}
	return b
}

// rate draws a request probability from [lo, hi). Rates are full 53-bit
// draws, so two requests never share a rate and cold points never repeat.
func rate(rng *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*rng.Float64()
}

// genAnalyzeHot builds every combination of five N=M=1024 wirings
// (full, single, partial with 2 and 8 groups, kclass), B from 16 to 512
// and both analytic models, each at two seeded rates: 120 distinct
// scenarios, few enough to stay resident in the default 4096-entry
// cache. The seed draws only the rates and the order, so every seed
// has the same mix of cheap and costly hits. The warm-up sends each
// once; the timed run cycles through the same bodies.
func genAnalyzeHot(rng *rand.Rand, _ int) (warm, timed [][]byte) {
	nets := []service.NetworkSpec{
		{Scheme: scenario.SchemeFull},
		{Scheme: scenario.SchemeSingle},
		{Scheme: scenario.SchemePartial, Groups: 2},
		{Scheme: scenario.SchemePartial, Groups: 8},
		{Scheme: scenario.SchemeKClass},
	}
	for _, nw := range nets {
		for b := 16; b <= 512; b *= 2 {
			for _, kind := range []string{scenario.ModelHier, scenario.ModelUniform} {
				for range 2 {
					nw.N, nw.B = 1024, b
					timed = append(timed, mustJSON(service.AnalyzeRequest{
						Network: nw,
						Model:   service.ModelSpec{Kind: kind},
						R:       rate(rng, 0.05, 1),
					}))
				}
			}
		}
	}
	rng.Shuffle(len(timed), func(i, j int) { timed[i], timed[j] = timed[j], timed[i] })
	return timed, timed
}

// Sweep grid shape shared by explore-cold and cluster-sweep. Every
// request has the same shape, so requests cost about the same; only the
// rates differ. 2 Ns × 2 Bs × 6 rates × 5 schemes = 120 points.
var (
	sweepNs      = []int{256, 1024}
	sweepBs      = []int{16, 64}
	sweepSchemes = []string{"full", "single", "partial-g2", "partial-g4", "kclasses"}
)

const (
	sweepRates = 6
	// sweepWarm fills the 4096-entry default cache past capacity, so the
	// timed run sees inserts and evictions in steady state.
	sweepWarm = 40
	// coldPerSecond bounds the rate any cold workload can reach on one
	// host; the timed corpus holds that many requests per second of run.
	coldPerSecond = 400
)

func sweepBody(rng *rand.Rand) []byte {
	rs := make([]float64, sweepRates)
	for i := range rs {
		rs[i] = rate(rng, 0.05, 1)
	}
	return mustJSON(service.SweepRequest{
		Ns:           sweepNs,
		Bs:           sweepBs,
		Rs:           rs,
		Schemes:      sweepSchemes,
		Hierarchical: true,
	})
}

func genSweeps(rng *rand.Rand, seconds int) (warm, timed [][]byte) {
	for range sweepWarm {
		warm = append(warm, sweepBody(rng))
	}
	for range coldPerSecond * seconds {
		timed = append(timed, sweepBody(rng))
	}
	return warm, timed
}

// clusterWarm is the cluster's shorter warm-up: three caches never fill,
// so the warm-up only opens connections and grows the heaps.
const clusterWarm = 16

func genClusterSweeps(rng *rand.Rand, seconds int) (warm, timed [][]byte) {
	warm, timed = genSweeps(rng, seconds)
	return warm[:clusterWarm], timed
}

// simCycles is the simulated length of every simulate-cold request.
const simCycles = 20000

// simulateBody builds the i-th N=16, B=8 simulation. Schemes and models
// cycle, so every run has the same mix; the rate and the simulator seed
// are drawn. Schemes, models and rates are confined to the range where a
// run costs about the same (30–45 ms in-process), keeping latency
// unimodal.
func simulateBody(rng *rand.Rand, i int) []byte {
	schemes := []string{scenario.SchemeFull, scenario.SchemePartial, scenario.SchemeKClass}
	models := []string{scenario.ModelHier, scenario.ModelUniform}
	return mustJSON(service.SimulateRequest{
		Network: service.NetworkSpec{Scheme: schemes[i%len(schemes)], N: 16, B: 8},
		Model:   service.ModelSpec{Kind: models[i/len(schemes)%len(models)]},
		R:       rate(rng, 0.5, 1),
		Sim:     service.SimSpec{Cycles: simCycles, Seed: 1 + rng.Int64N(1<<62)},
	})
}

func genSimulate(rng *rand.Rand, seconds int) (warm, timed [][]byte) {
	for i := range 6 {
		warm = append(warm, simulateBody(rng, i))
	}
	for i := range coldPerSecond * seconds {
		timed = append(timed, simulateBody(rng, i))
	}
	return warm, timed
}
