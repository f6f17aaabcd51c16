// Package stats implements the statistical machinery the paper's analyses
// rest on: empirical CDFs (every "CDF of ..." figure), quantiles and
// box-plot statistics with 1.5-IQR whiskers (Figures 1b and 3d), Pearson
// correlation (the node-level and region-level similarity studies of
// Section IV-B), the coefficient of variation (Figure 3d), two-dimensional
// histograms (the VM-size heatmaps of Figure 2), and descriptive summaries.
//
// All functions are pure and operate on float64 slices; none of them mutate
// their inputs.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CV returns the coefficient of variation (standard deviation divided by
// mean) of xs. The paper uses the CV of hourly VM-creation counts to
// quantify burstiness across regions (Figure 3d). CV of an empty or
// zero-mean sample is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile of xs using linear interpolation between
// order statistics (the R-7 / NumPy default method). q is clamped to [0, 1].
// NaN samples are ignored — a NaN breaks sort.Float64s ordering and would
// silently corrupt every order statistic near it — and the result is 0 when
// no finite-ordered samples remain (matching the empty-slice behaviour). A
// NaN q yields NaN.
func Quantile(xs []float64, q float64) float64 {
	sorted := sortedFinite(xs)
	if len(sorted) == 0 {
		return 0
	}
	return quantileSorted(sorted, q)
}

// QuantilesOf returns the quantiles at each q in qs, sorting xs only once.
// NaN samples are ignored, each q is clamped to [0, 1], and a NaN q yields
// NaN, exactly as in Quantile.
func QuantilesOf(xs []float64, qs ...float64) []float64 {
	return QuantilesInPlace(append([]float64(nil), xs...), qs...)
}

// QuantilesInPlace is QuantilesOf for a caller done with xs: it drops the
// NaNs and sorts in xs's own storage instead of a copy, leaving xs
// reordered.
func QuantilesInPlace(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	n := 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			xs[n] = x
			n++
		}
	}
	if n == 0 {
		return out
	}
	sorted := xs[:n]
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// sortedFinite returns a sorted copy of xs with NaNs dropped. The copy is
// allocated only when needed; a clean input still pays one copy (the public
// functions never mutate their inputs) but no second pass.
func sortedFinite(xs []float64) []float64 {
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	sort.Float64s(sorted)
	return sorted
}

// quantileSorted computes the R-7 quantile of an already sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson returns the Pearson correlation coefficient of the paired samples
// xs and ys. It returns 0 when either series is constant or the slices have
// fewer than two pairs; it panics if the lengths differ, because paired
// samples of different lengths indicate a caller bug.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson on slices of different length")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	// Scale deviations by their largest magnitude so the squared sums
	// cannot overflow even for inputs near math.MaxFloat64; correlation
	// is invariant under per-axis scaling.
	var maxDX, maxDY float64
	for i := 0; i < n; i++ {
		if d := math.Abs(xs[i] - mx); d > maxDX {
			maxDX = d
		}
		if d := math.Abs(ys[i] - my); d > maxDY {
			maxDY = d
		}
	}
	if maxDX == 0 || maxDY == 0 {
		return 0
	}
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := (xs[i] - mx) / maxDX
		dy := (ys[i] - my) / maxDY
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Guard against floating-point drift just past the theoretical bounds.
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r
}
