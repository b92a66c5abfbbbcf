package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads this harness reports match the ones an external checker computes
// from the same values. A single value is its own quartiles; an empty slice
// gives NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// relSpread is the interquartile distance of xs as a share of its median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// unresolved reports whether the median of xs is too uncertain to tell a
// change of the bound's size from noise. For roughly normal noise, the
// interquartile spread of a median of n values is about 1.25/√n of the
// values' own spread. Fewer than three values cannot tell at all.
func unresolved(xs []float64, bound float64) bool {
	if len(xs) < 3 {
		return true
	}
	return 1.2533*relSpread(xs)/math.Sqrt(float64(len(xs))) > bound
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99, 95, 90, 50}

// tailPercentile returns the highest of p99/p95/p90/p50 that has at least
// ten samples beyond it, and its value (nearest-rank). ok is false when even
// the median has fewer than ten samples above it.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	s := sorted(xs)
	n := float64(len(s))
	for _, p := range tailPercentiles {
		if n*(100-p)/100 >= 10 {
			return p, nearestRank(s, p), true
		}
	}
	return 0, 0, false
}

// nearestRank returns the p-th percentile of an ascending slice by the
// nearest-rank definition (NaN when empty).
func nearestRank(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(p * float64(len(s)) / 100))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// percentile returns the p-th nearest-rank percentile of xs in any order.
func percentile(xs []float64, p float64) float64 { return nearestRank(sorted(xs), p) }
