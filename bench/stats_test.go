package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75},
		{[]float64{2.5, 0.5, 9, 4, 4}, 1.5, 4, 6.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != tc.q2 {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.q2)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(median(nil)) {
		t.Error("empty input must give NaN")
	}
}

func TestSpreadAndUnresolved(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // IQR 5.5 around median 5.5
	if got := relSpread(xs); got != 1 {
		t.Fatalf("relSpread = %v, want 1", got)
	}
	tight := []float64{100, 101, 99, 100, 100.5}
	if unresolved(tight, 0.10) {
		t.Errorf("spread %.3f flagged against a 10%% bound", relSpread(tight))
	}
	// Ten values spread by 100 % leave their median spread by about 40 %.
	if !unresolved(xs, 0.10) || unresolved(xs, 0.5) {
		t.Error("ten values with a 100% spread must be unresolved against 10% and resolved against 50%")
	}
	// The same relative spread resolves more as values accumulate.
	var many []float64
	for i := 0; i < 100; i++ {
		many = append(many, xs...)
	}
	if unresolved(many, 0.10) {
		t.Error("a thousand values with a 100% spread left a 10% bound unresolved")
	}
	if !unresolved([]float64{1, 1}, 0.5) {
		t.Error("two values must be unresolved")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: order must not matter
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		p, v  float64
		ok    bool
		label string
	}{
		{19, 0, 0, false, "too few beyond even the median"},
		{20, 50, 10, true, "exactly ten above the median"},
		{99, 50, 50, true, "p90 has 9.9 beyond"},
		{100, 90, 90, true, "p90 has ten beyond"},
		{200, 95, 190, true, "p95 has ten beyond"},
		{999, 95, 950, true, "p99 has 9.99 beyond"},
		{1000, 99, 990, true, "p99 has ten beyond"},
	} {
		p, v, ok := tailPercentile(seq(tc.n))
		if p != tc.p || v != tc.v || ok != tc.ok {
			t.Errorf("n=%d (%s): got p%v=%v ok=%v, want p%v=%v ok=%v", tc.n, tc.label, p, v, ok, tc.p, tc.v, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 20: 1, 50: 3, 95: 5, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}
