package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {11, 0}, {20, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := c.want; p > 0 && samplesBeyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, samplesBeyond(c.n, p))
		}
	}
	// The p90 the end-to-end metric reports is valid from minTailOps on.
	if samplesBeyond(minTailOps, 90) < 10 || samplesBeyond(minTailOps-1, 90) >= 10 {
		t.Errorf("minTailOps=%d is not the smallest run with ten samples beyond p90", minTailOps)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{1.2, 0.9, 1.0, 1.1}, [3]float64{0.925, 1.05, 1.175}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}
