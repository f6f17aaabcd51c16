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
	"math/bits"
	"slices"
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

// QuantilesOf returns the quantiles at each q in qs from one copy of xs.
// NaN samples are ignored, each q is clamped to [0, 1], and a NaN q yields
// NaN, exactly as in Quantile.
func QuantilesOf(xs []float64, qs ...float64) []float64 {
	return QuantilesInPlace(append([]float64(nil), xs...), qs...)
}

// QuantilesInPlace is QuantilesOf for a caller done with xs: it drops the
// NaNs in xs's own storage instead of a copy and, rather than sorting it,
// selects only the order statistics the quantiles read, leaving xs
// reordered. Each result equals what a full sort would give; only the sign
// of a zero may differ, where xs holds both -0 and +0.
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
	xs = xs[:n]
	ranks := make([]int, 0, 2*len(qs))
	for _, q := range qs {
		if !math.IsNaN(q) {
			lo, hi, _ := quantileRanks(n, q)
			ranks = append(ranks, lo, hi)
		}
	}
	slices.Sort(ranks)
	selectRanks(xs, 0, slices.Compact(ranks), 2*bits.Len(uint(n)))
	for i, q := range qs {
		out[i] = quantileSorted(xs, q)
	}
	return out
}

// selectRanks reorders xs, a NaN-free window of a slice that starts off
// elements earlier, so that for every rank k in ranks (ascending, all
// inside the window) position k-off holds the value a sort would put there.
// It is a three-way quickselect that only descends into the parts holding
// a wanted rank; values equal to the pivot are settled in one pass, so ties
// cost nothing extra. After depth partitions a window is sorted outright,
// which bounds the worst case at a sort's O(n log n).
func selectRanks(xs []float64, off int, ranks []int, depth int) {
	for len(ranks) > 0 {
		if len(xs) <= 12 {
			for i := 1; i < len(xs); i++ {
				for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
					xs[j], xs[j-1] = xs[j-1], xs[j]
				}
			}
			return
		}
		if depth == 0 {
			sort.Float64s(xs)
			return
		}
		depth--
		lt, gt := partition3(xs, medianOf3(xs[0], xs[len(xs)/2], xs[len(xs)-1]))
		// xs[:lt] < pivot, xs[lt:gt] == pivot, xs[gt:] > pivot.
		left := 0
		for left < len(ranks) && ranks[left] < off+lt {
			left++
		}
		right := left
		for right < len(ranks) && ranks[right] < off+gt {
			right++
		}
		selectRanks(xs[:lt], off, ranks[:left], depth)
		xs, off, ranks = xs[gt:], off+gt, ranks[right:]
	}
}

// partition3 rearranges xs around pivot into the values below it, equal to
// it and above it, and returns where the equal run starts and ends.
func partition3(xs []float64, pivot float64) (lt, gt int) {
	i, gt := 0, len(xs)
	for i < gt {
		switch v := xs[i]; {
		case v < pivot:
			xs[lt], xs[i] = v, xs[lt]
			lt++
			i++
		case v > pivot:
			gt--
			xs[i], xs[gt] = xs[gt], v
		default:
			i++
		}
	}
	return lt, gt
}

func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
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

// quantileSorted computes the R-7 quantile of an already sorted slice. It
// reads only the order statistics quantileRanks names.
func quantileSorted(sorted []float64, q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	lo, hi, frac := quantileRanks(len(sorted), q)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// quantileRanks returns the two order statistics, lo <= hi, between which
// the R-7 q-quantile of n samples interpolates, and hi's weight. q is
// clamped to [0, 1] and must not be NaN.
func quantileRanks(n int, q float64) (lo, hi int, frac float64) {
	if q <= 0 {
		return 0, 0, 0
	}
	if q >= 1 {
		return n - 1, n - 1, 0
	}
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
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
