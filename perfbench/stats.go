package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// throughputSegments is how many equal-count segments throughput_rps
// takes the median over: a stall of a second or two on a shared host
// then moves one or two segments, not the reported rate.
const throughputSegments = 10

// segmentRate splits sorted completion times (seconds since the window
// opened) into k segments of equal count and returns the median of the
// segments' completion rates. With fewer than 2k completions it is the
// plain rate over the span of the completions.
func segmentRate(doneAt []float64, k int) float64 {
	n := len(doneAt)
	if n < 2*k {
		k = 1
	}
	rates := make([]float64, 0, k)
	prevIdx, prevT := 0, 0.0
	for s := 1; s <= k; s++ {
		idx := s * n / k
		t := doneAt[idx-1]
		if t > prevT {
			rates = append(rates, float64(idx-prevIdx)/(t-prevT))
		}
		prevIdx, prevT = idx, t
	}
	return median(rates)
}

func sortedMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
