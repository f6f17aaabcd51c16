package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{4, 1, 2}, 1, 2, 4},
		{[]float64{2.5, 3.1, 2.7, 2.9}, 2.55, 2.8, 3.05},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := median(c.xs); !near(got, c.m) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.m)
		}
	}
	if q1, m, q3 := quartiles(nil); q1 != 0 || m != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v, want zeros", q1, m, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// A percentile is reportable only with at least ten samples beyond it.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{3, 50}, {19, 50}, {99, 50}, // p90 of 99 leaves 9 beyond
		{100, 90}, {999, 90}, // p99 of 999 leaves 9 beyond
		{1000, 99}, {2900, 99}, {9999, 99},
		{10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(2900, 99); got != 29 {
		t.Errorf("samplesBeyond(2900, 99) = %d, want 29", got)
	}
}

func TestRowFlagsNoisyIterationsOnly(t *testing.T) {
	def := metricDef{Name: "x", Unit: "s", Better: "lower", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 1.00}
	wide := []float64{1.0, 1.5, 0.7, 1.3, 0.8}
	if r := rowOf(def, math.NaN(), steady, iterations); r.Noisy || !near(r.Value, 1.00) || r.N != 5 {
		t.Errorf("steady iterations: %+v", r)
	}
	if r := rowOf(def, math.NaN(), wide, iterations); !r.Noisy {
		t.Errorf("wide iterations not flagged: %+v", r)
	}
	if r := rowOf(def, percentile(wide, 90), wide, operations); r.Noisy || r.Value != 1.5 {
		t.Errorf("pooled operations: %+v", r)
	}
}

func TestTailOfFallsBackToAMeasurablePercentile(t *testing.T) {
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailOf(xs, 99); got != 135 { // only 1 beyond p99; p90 has 15
		t.Errorf("tailOf(1..150, 99) = %v, want the p90, 135", got)
	}
	if got := tailOf(xs, 90); got != 135 {
		t.Errorf("tailOf(1..150, 90) = %v, want 135", got)
	}
	if got := tailOf(xs[:15], 95); got != 8 { // nothing above the median is measurable
		t.Errorf("tailOf(1..15, 95) = %v, want the median, 8", got)
	}
}
