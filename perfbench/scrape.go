package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// sample is one /metrics scrape: series (name plus label set, exactly
// as exposed) to value.
type sample map[string]float64

func scrape(url string) (sample, error) {
	resp, err := probeClient.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return parseExposition(buf.Bytes())
}

// parseExposition reads Prometheus text exposition lines of the form
// `name{labels} value`; comments and blank lines are skipped.
func parseExposition(data []byte) (sample, error) {
	s := sample{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed exposition line %q: %w", line, err)
		}
		s[line[:cut]] = v
	}
	return s, sc.Err()
}

// sum adds every series of the family name whose labels include each
// of the given `key="value"` pairs.
func (s sample) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range s {
		family, rest, _ := strings.Cut(series, "{")
		if family != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// fleetDiff is the per-instance difference of two scrapes of a fleet,
// taken around one timed phase.
type fleetDiff []sample

func scrapeFleet(f *fleet) ([]sample, error) {
	out := make([]sample, len(f.insts))
	for i, in := range f.insts {
		s, err := scrape(in.url)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func diffFleet(before, after []sample) fleetDiff {
	d := make(fleetDiff, len(after))
	for i := range after {
		d[i] = sample{}
		for k, v := range after[i] {
			d[i][k] = v - before[i][k]
		}
	}
	return d
}

// sum totals a family over every instance.
func (d fleetDiff) sum(name string, labels ...string) float64 {
	var t float64
	for _, s := range d {
		t += s.sum(name, labels...)
	}
	return t
}

// lookups is every cache probe the fleet answered.
func (d fleetDiff) lookups() float64 {
	return d.sum("mbserve_cache_hits") + d.sum("mbserve_cache_misses")
}

// reconcile checks that the server's own counters account for exactly
// the traffic the generator sent: every analyze or simulate request is
// one cache lookup, and every swept point one progress tick on the
// front instance and one cache lookup on the instance that owns it.
func reconcile(w *workload, d fleetDiff, sent, points int) error {
	switch w.path {
	case "/v1/analyze", "/v1/simulate":
		if got := d.lookups(); got != float64(sent) {
			return fmt.Errorf("cache hits+misses moved by %v, want %d requests sent", got, sent)
		}
	case "/v1/sweep":
		if got := d[0].sum("mbserve_sweep_points_total"); got != float64(points) {
			return fmt.Errorf("mbserve_sweep_points_total moved by %v, want %d points received", got, points)
		}
		if got := d.lookups(); got != float64(points) {
			return fmt.Errorf("cache hits+misses moved by %v, want %d points received", got, points)
		}
	}
	return nil
}
