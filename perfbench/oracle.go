package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"

	"multibus/internal/compute"
	"multibus/internal/service"
	"multibus/internal/sweep"
	"multibus/internal/tables"
)

// oracle serves requests in-process on a fresh single-instance server
// with the plain local backend: the reference every reply over TCP,
// standalone or clustered, must equal byte for byte.
type oracle struct {
	h http.Handler
}

func newOracle() (*oracle, error) {
	srv, err := service.New(service.Options{Backend: compute.Local()})
	if err != nil {
		return nil, err
	}
	return &oracle{h: srv.Handler()}, nil
}

func (o *oracle) serve(rq request) (int, []byte) {
	rec := httptest.NewRecorder()
	o.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body)))
	return rec.Code, rec.Body.Bytes()
}

// verified summarises the replies the oracle accepted.
type verified struct {
	failed       int   // replies that were not 2xx
	points       int   // sweep points in every 2xx reply
	windowPoints int   // … in replies completed inside the window
	windowCycles int64 // simulated cycles in 2xx replies inside the window
}

// verify recomputes the expected body of every distinct request that
// drew a 2xx reply, on workers goroutines, and compares. Any difference
// is an error: a wrong answer fails the run, it is never just counted.
// Hot workloads must be answered from the cache and cold analyze or
// simulate requests must not be, or the workload is not measuring what
// it claims.
func verify(w *workload, reqs []request, replies []reply, workers int) (verified, error) {
	var v verified
	need := map[int]bool{}
	for _, r := range replies {
		if r.err != nil || r.status/100 != 2 {
			v.failed++
			continue
		}
		need[r.idx%len(reqs)] = true
		switch {
		case w.hot && r.xcache != "hit":
			return v, fmt.Errorf("hot request %d answered X-Cache %q, want hit", r.idx, r.xcache)
		case !w.hot && w.path != "/v1/sweep" && r.xcache != "miss":
			return v, fmt.Errorf("cold request %d answered X-Cache %q, want miss", r.idx, r.xcache)
		}
	}
	o, err := newOracle()
	if err != nil {
		return v, err
	}
	type want struct {
		body   []byte
		points int
		cycles int64
	}
	idxs := make([]int, 0, len(need))
	for i := range need {
		idxs = append(idxs, i)
	}
	wants := make([]want, len(reqs))
	errs := make([]error, len(idxs))
	if err := sweep.ForEach(context.Background(), len(idxs), workers, func(_ context.Context, k int) error {
		i := idxs[k]
		status, body := o.serve(reqs[i])
		if status != http.StatusOK {
			errs[k] = fmt.Errorf("oracle answered %d to request %d: %.200s", status, i, body)
			return nil
		}
		var shape struct {
			Points []json.RawMessage `json:"points"`
			Cycles int64             `json:"cycles"`
		}
		if err := json.Unmarshal(body, &shape); err != nil {
			errs[k] = fmt.Errorf("oracle body for request %d: %w", i, err)
			return nil
		}
		wants[i] = want{body: bytes.Clone(body), points: len(shape.Points), cycles: shape.Cycles}
		return nil
	}); err != nil {
		return v, err
	}
	for _, err := range errs {
		if err != nil {
			return v, err
		}
	}
	for _, r := range replies {
		if r.err != nil || r.status/100 != 2 {
			continue
		}
		wt := wants[r.idx%len(reqs)]
		if !bytes.Equal(r.body, wt.body) {
			return v, fmt.Errorf("request %d: served body differs from the in-process reference at byte %d (served %d bytes, want %d)",
				r.idx, firstDiff(r.body, wt.body), len(r.body), len(wt.body))
		}
		v.points += wt.points
		if r.inWindow {
			v.windowPoints += wt.points
			v.windowCycles += wt.cycles
		}
	}
	return v, nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// paperTolerance is the agreement EXPERIMENTS.md reports for every
// legible cell of Tables II–VI: ±0.009, stated to four decimals. The
// exact worst cell (Table II) is 0.0090198, so the check compares at
// the precision the figure is stated in.
const paperTolerance = 0.009

// paperCells is the number of legible cells in Tables II–VI; a
// validation that compares fewer has lost part of the paper.
const paperCells = 296

// paperSweep is one table's grid as a sweep request.
type paperSweep struct {
	id  string
	req service.SweepRequest
}

func paperSweeps() []paperSweep {
	models := []service.ModelSpec{{Kind: "hier"}, {Kind: "uniform"}}
	full := func(id string, r float64) paperSweep {
		bs := make([]int, 16)
		for i := range bs {
			bs[i] = i + 1
		}
		return paperSweep{id, service.SweepRequest{
			Ns: []int{8, 12, 16}, Bs: bs, Rs: []float64{r},
			Schemes: []string{"full", "crossbar"}, Models: models,
		}}
	}
	power := func(id, scheme string, minB int, r float64) paperSweep {
		var bs []int
		for b := minB; b <= 32; b *= 2 {
			bs = append(bs, b)
		}
		return paperSweep{id, service.SweepRequest{
			Ns: []int{8, 16, 32}, Bs: bs, Rs: []float64{r},
			Schemes: []string{scheme}, Models: models,
		}}
	}
	return []paperSweep{
		full("II", 1), full("III", 0.5),
		power("IVa", "single", 1, 1), power("IVb", "single", 1, 0.5),
		power("Va", "partial-g2", 2, 1), power("Vb", "partial-g2", 2, 0.5),
		power("VIa", "kclasses", 2, 1), power("VIb", "kclasses", 2, 0.5),
	}
}

// paperMaxErr sends every paper table's grid as a sweep to url and
// returns the largest absolute difference between a served bandwidth
// and the printed cell. It fails unless every legible cell was compared
// and all are within paperTolerance.
func paperMaxErr(url string) (float64, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var (
		maxErr float64
		cells  int
	)
	for _, ps := range paperSweeps() {
		status, body, _, err := post(context.Background(), client, url+"/v1/sweep", mustJSON(ps.req))
		if err != nil {
			return 0, fmt.Errorf("paper table %s: %w", ps.id, err)
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("paper table %s: %w", ps.id, errStatus(url, status, body))
		}
		e, n, err := tableErr(tables.PaperTable(ps.id), body)
		if err != nil {
			return 0, fmt.Errorf("paper table %s: %w", ps.id, err)
		}
		maxErr = math.Max(maxErr, e)
		cells += n
	}
	if cells != paperCells {
		return maxErr, fmt.Errorf("compared %d paper cells, want %d", cells, paperCells)
	}
	if math.Round(maxErr*1e4)/1e4 > paperTolerance {
		return maxErr, fmt.Errorf("served bandwidth differs from the paper by %.17g, above the %.3f tolerance", maxErr, paperTolerance)
	}
	return maxErr, nil
}

// tableErr compares one sweep body against a paper table laid out as
// rows of B (plus a trailing crossbar row in Tables II–III) and columns
// "N=<n> Hier", "N=<n> Unif". It returns the largest error and the
// number of legible cells compared.
func tableErr(t *tables.Table, body []byte) (float64, int, error) {
	var res struct {
		Points []compute.Point `json:"points"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, 0, err
	}
	col := map[string]int{}
	for i, c := range t.Columns {
		col[c] = i
	}
	row := map[string]int{}
	for i, l := range t.RowLabels {
		row[l] = i
	}
	var (
		maxErr float64
		n      int
		seen   = map[[2]int]bool{}
	)
	for _, p := range res.Points {
		label := strconv.Itoa(p.B)
		if p.Scheme == "crossbar" {
			if p.B != 1 {
				continue // the crossbar row does not depend on B
			}
			label = "N×N crossbar"
		}
		model := map[string]string{"hier": "Hier", "uniform": "Unif"}[p.Model]
		c, okc := col[fmt.Sprintf("N=%d %s", p.N, model)]
		r, okr := row[label]
		if !okc || !okr {
			return 0, 0, fmt.Errorf("point %s/%s N=%d B=%d has no cell", p.Scheme, p.Model, p.N, p.B)
		}
		paper := t.Cell(r, c)
		if math.IsNaN(paper) || seen[[2]int{r, c}] {
			continue
		}
		seen[[2]int{r, c}] = true
		maxErr = math.Max(maxErr, math.Abs(p.Bandwidth-paper))
		n++
	}
	return maxErr, n, nil
}
