package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p90 needs 100 samples, a median 20.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by linear
// interpolation between order statistics, and whether at least
// minBeyond samples lie above it. xs need not be sorted and is not
// modified. An unreported percentile comes back as (0, false).
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	if float64(n)*(1-p) < minBeyond-1e-9 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo]), true
}

// setPct sets the layer metric name to the p-quantile of xs, unless
// xs is too small for it under the minBeyond rule; the metric then
// stays unset, and the run reports it as unmeasured.
func (r *report) setPct(name string, xs []float64, p float64) {
	if v, ok := percentile(xs, p); ok {
		r.layers[name] = v
	}
}

// median is the 0.5-quantile of xs without the sample-count rule; it is
// for small sets of repeated set-up timings, not for reported
// latencies. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
