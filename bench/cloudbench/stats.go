package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the middle two for an
// even count), 0 for an empty slice.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method: position i*(n+1)/4, interpolated, clamped to the ends), so the
// spread this program reports is the spread the acceptance check
// computes. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples. The small slack keeps 99.9 % of 10 000 at rank 9 990 despite
// the product's floating-point excess.
func rankOf(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(rank, n))
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, p)
}

// minBeyond is the choosing-metrics rule: a percentile is reportable
// only when at least this many samples lie beyond it.
const minBeyond = 10

// highestPercentile returns the highest of the candidate percentiles
// (50, 90, 99, 99.9) that has at least minBeyond samples beyond it, and
// 50 when none does — a tail is then not measurable and the median
// stands in for it.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9} {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// tailOf is the p-th percentile of xs, or the highest measurable one
// below it when xs has fewer than ten samples beyond p (a -smoke run, a
// very short -seconds).
func tailOf(xs []float64, p float64) float64 {
	return percentile(xs, math.Min(p, highestPercentile(len(xs))))
}

// row is one reported metric: the value (a median unless the metric is
// itself a percentile or a count), the samples behind it, and for an
// end-to-end metric its regression bound and whether this run's own
// spread already exceeds it.
type row struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Bound  float64 `json:"bound,omitempty"`
	Noisy  bool    `json:"noisy,omitempty"`
	// Means says what the generic end-to-end slot measures on this
	// workload (the issue's metric name), empty elsewhere.
	Means string `json:"means,omitempty"`
	// Samples are the per-iteration measurements behind the row, kept so
	// every iteration made is on record; pooled operations are not kept.
	Samples []float64 `json:"samples,omitempty"`
}

// sampleKind says what the samples behind a row are: repeated
// measurements of one quantity, whose spread is noise, or the pooled
// operations of a run, whose spread is the shape of their distribution.
type sampleKind int

const (
	iterations sampleKind = iota
	operations
)

// rowOf summarises samples under the metric's definition. value is the
// reported number; pass NaN to report the median of samples. A bounded
// metric whose iterations spread wider than its bound is flagged noisy.
func rowOf(def metricDef, value float64, samples []float64, kind sampleKind) row {
	q1, med, q3 := quartiles(samples)
	if math.IsNaN(value) {
		value = med
	}
	r := row{Name: def.Name, Unit: def.Unit, Better: def.Better, Value: value,
		N: len(samples), Q1: q1, Q3: q3, Bound: def.Bound}
	if kind == iterations {
		r.Samples = samples
		r.Noisy = def.Bound > 0 && med != 0 && (q3-q1)/math.Abs(med) > def.Bound
	}
	return r
}
