package main

import (
	"math"
	"sort"
)

// minTailOps is the op count a run needs before latency_p90_ms is
// reported: the guide's rule is "the highest percentile with at least
// ten samples beyond it", and p90 has ten beyond it from 100 samples.
const minTailOps = 100

// samplesBeyond is how many of n sorted samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - nearestRank(n, p) - 1
}

// nearestRank is the 0-based index of the nearest-rank p-th percentile
// (0 < p ≤ 100) of n sorted samples.
func nearestRank(n int, p float64) int {
	// ceil(p/100 · n) in integer per-mille arithmetic, so p99.9 of 10000
	// is exactly rank 9990 with no floating-point round-up.
	pm := int(math.Round(p * 10))
	r := (pm*n+999)/1000 - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// tailPercentile returns the highest of the standard percentiles that
// has at least ten samples beyond it among n samples, or 0 when even
// the median does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)]
}

// median is the midpoint-interpolated median of xs (0 for none).
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

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method, which
// extrapolates for tiny samples), the rule run-to-run spread is judged
// by: spread = (Q3 − Q1) / Q2. Needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
