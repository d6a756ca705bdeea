package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false}, // 9.5 beyond the median
		{20, 0.5, true},  // 10 beyond
		{99, 0.9, false},
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{0, 0.5, false},
	} {
		_, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.want {
			t.Errorf("percentile(n=%d, p=%g) reported %v, want %v", tc.n, tc.p, ok, tc.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := seq(100) // 1..100
	if got, _ := percentile(xs, 0.5); math.Abs(got-50.5) > 1e-12 {
		t.Errorf("p50 of 1..100 = %g, want 50.5", got)
	}
	if got, _ := percentile(xs, 0.9); math.Abs(got-90.1) > 1e-12 {
		t.Errorf("p90 of 1..100 = %g, want 90.1", got)
	}
	if xs[0] != 100 {
		t.Error("percentile modified its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
}

func TestSetPctLeavesTooFewUnset(t *testing.T) {
	r := &report{layers: map[string]float64{}}
	r.setPct("fleet.lease_wait_ms_p50", seq(19), 0.5)
	r.setPct("fleet.result_ms_p50", seq(20), 0.5)
	if _, ok := r.layers["fleet.lease_wait_ms_p50"]; ok {
		t.Error("a median of 19 samples was set")
	}
	if got := r.layers["fleet.result_ms_p50"]; got != 10.5 {
		t.Errorf("median of 1..20 = %g, want 10.5", got)
	}
	miss := unmeasured(r, "fleet")
	if !slices.Contains(miss, "fleet.lease_wait_ms_p50") || slices.Contains(miss, "fleet.result_ms_p50") {
		t.Errorf("unmeasured on fleet = %v", miss)
	}
	for _, m := range unmeasured(r, "sweep") {
		if strings.HasPrefix(m, "fleet.") {
			t.Errorf("unmeasured on sweep lists %s, which sweep does not measure", m)
		}
	}
}
