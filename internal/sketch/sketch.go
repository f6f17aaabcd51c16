// Package sketch provides the bounded-memory online statistics the
// streaming ingestion pipeline folds five-minute telemetry samples into:
// running mean and variance (Welford's algorithm), fixed-range histogram
// quantile sketches, and autocorrelation at a fixed set of lags over a
// bounded ring of recent samples.
//
// Welford and Histogram are mergeable: combining the states of two
// disjoint sub-streams yields exactly the state of the concatenated stream
// (up to floating-point association), so per-worker or per-window sketches
// can be folded into a global one. AutoCorr is order-sensitive by nature
// (it correlates a series with a shifted copy of itself) and therefore
// consumes one ordered series; it has no merge operation.
//
// Every sketch also round-trips through an exported State value (see
// state.go): encoding a sketch, decoding it, and folding further samples
// yields exactly the accumulator that never left memory. The streaming
// pipeline's checkpoint/resume support is built on this property.
package sketch

import "math"

// Welford tracks count, mean, and variance of a stream in O(1) space using
// Welford's online algorithm. The zero value is an empty accumulator.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator into w (Chan et al.'s parallel update),
// as if w had also observed every sample o observed.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// Count returns the number of samples observed.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the running mean, or 0 when empty.
func (w *Welford) Mean() float64 { return w.mean }

// Sum returns the running total.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Variance returns the population variance (matching stats.Variance), or 0
// for fewer than two samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// SumSqDev returns the sum of squared deviations from the mean (the ACF
// normalizer).
func (w *Welford) SumSqDev() float64 { return w.m2 }

// Histogram is a fixed-range, fixed-resolution quantile sketch: samples are
// counted into uniform bins over [Lo, Hi] and quantiles are read back with
// linear interpolation inside the selected bin, so the estimate error is
// bounded by one bin width. Samples outside the range clamp to the edge
// bins. Two histograms with identical geometry merge by adding counts.
type Histogram struct {
	Lo, Hi float64
	counts []float64
	n      int64
}

// NewHistogram returns an empty sketch over [lo, hi] with the given number
// of bins. It panics when the range is empty or bins is not positive, since
// both indicate a caller bug.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if !(hi > lo) || bins <= 0 {
		panic("sketch: invalid histogram geometry")
	}
	return &Histogram{Lo: lo, Hi: hi, counts: make([]float64, bins)}
}

// binOf returns the bin of x in a sketch of bins uniform bins over
// [lo, hi], clamped to the edge bins. Add, ObserveAll and Counter.Add all
// count through it: a pre-divided scale factor rounds differently in the
// last ulp and can flip a boundary sample into the neighbouring bin, so
// the three stay bit-identical only by sharing this one expression.
func binOf(x, lo, hi float64, bins int) int {
	i := int(float64(bins) * (x - lo) / (hi - lo))
	if i < 0 {
		return 0
	}
	if i >= bins {
		return bins - 1
	}
	return i
}

// Add counts one sample.
func (h *Histogram) Add(x float64) {
	h.counts[binOf(x, h.Lo, h.Hi, len(h.counts))]++
	h.n++
}

// ObserveAll counts a whole float32 column in one bulk pass — the
// columnar fold entry point. Each element lands in exactly the bin Add
// would have chosen for its float64 widening (the conversion is exact), so
// a bulk fold is bit-identical to sample-at-a-time adds; only the loop
// overhead and the per-call bounds checks are amortized.
func (h *Histogram) ObserveAll(xs []float32) {
	counts, lo, hi := h.counts, h.Lo, h.Hi
	for _, x := range xs {
		counts[binOf(float64(x), lo, hi, len(counts))]++
	}
	h.n += int64(len(xs))
}

// Counter is a counting handle on one Histogram. It carries the sketch's
// geometry and a view of its bins, so a caller that holds it by value
// beside its other per-sample state counts a sample without first loading
// the sketch: the bin is picked from the handle alone. It stays valid for
// the life of the Histogram (whose bins are never reallocated); a handle
// on a histogram that has since been replaced counts into the old one.
type Counter struct {
	lo, hi float64
	counts []float64
	n      *int64
}

// Counter returns a counting handle on h.
func (h *Histogram) Counter() Counter {
	return Counter{lo: h.Lo, hi: h.Hi, counts: h.counts, n: &h.n}
}

// Add counts one sample into the handle's histogram, exactly as
// Histogram.Add would.
func (c *Counter) Add(x float64) {
	c.counts[binOf(x, c.lo, c.hi, len(c.counts))]++
	*c.n++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.n }

// Merge adds another histogram's counts into h. Both histograms must share
// the same geometry; Merge panics otherwise, since mismatched sketches
// indicate a caller bug.
func (h *Histogram) Merge(o *Histogram) {
	if o.Lo != h.Lo || o.Hi != h.Hi || len(o.counts) != len(h.counts) {
		panic("sketch: merging histograms with different geometry")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed samples,
// interpolating linearly within the selected bin. It returns 0 when the
// sketch is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	cum := 0.0
	width := (h.Hi - h.Lo) / float64(len(h.counts))
	for i, c := range h.counts {
		if cum+c >= target {
			frac := 0.5
			if c > 0 {
				frac = (target - cum) / c
			}
			return h.Lo + (float64(i)+frac)*width
		}
		cum += c
	}
	return h.Hi
}

// AutoCorr estimates the autocorrelation of one ordered series at a fixed
// set of lags. It keeps a ring of the most recent maxLag samples (float32,
// utilization fractions do not need more) plus O(lags) running sums, so
// memory is bounded by the largest lag regardless of stream length.
//
// The estimate matches the batch definition used by package periodic:
//
//	acf(L) = sum_{i=L..n-1} (x[i]-mean)(x[i-L]-mean) / sum_i (x[i]-mean)^2
//
// with the mean and the normalizer taken over the full series observed so
// far. Expanding the numerator gives sum x[i]x[i-L] minus mean-weighted head
// and tail sums, all of which update in O(1) per lag per sample.
//
// Add updates the moments at once but defers the per-lag terms: samples
// wait in a block of autoCorrBlock inside the struct, and Flush folds the
// block lag by lag, so each lag's stretch of the ring is loaded once per
// block instead of once per sample. Every sum sees the same operations in
// the same order as a per-sample update, so results are bit-identical
// whenever the block is flushed. The read methods that need the per-lag
// terms or the ring flush first; N, Mean and StdDev never wait.
//
// The zero value is not usable; call Init (or NewAutoCorr) first. An
// AutoCorr can be embedded by value but must not be copied once in use.
type AutoCorr struct {
	// What Add touches comes first, so a holder that lays its own
	// per-sample fields out ahead of an embedded AutoCorr keeps them on the
	// same cache lines: the moments, then pend, which holds the last np
	// samples, oldest first: counted in w and sum, not yet in the per-lag
	// sums or the ring.
	w    Welford
	sum  float64
	np   int
	pend [autoCorrBlock]float64

	lags    []int
	maxLag  int
	ring    []float32
	sumProd []float64 // per lag: sum of x[i]*x[i-L]
	headSum []float64 // per lag: sum of x[0..L-1], frozen once n reaches L
	tailSum []float64 // per lag: sum of the most recent min(n, L) samples
}

// autoCorrBlock is how many samples Add defers before folding them into the
// per-lag sums.
const autoCorrBlock = 16

// NewAutoCorr returns an accumulator for the given positive lags.
func NewAutoCorr(lags ...int) *AutoCorr {
	a := new(AutoCorr)
	a.Init(append([]int(nil), lags...)...)
	return a
}

// Init makes a an empty accumulator for the given positive lags, for
// callers that hold an AutoCorr by value. It keeps lags without copying
// (many accumulators can share one lag set), so the caller must not
// modify it afterwards.
func (a *AutoCorr) Init(lags ...int) {
	k := len(lags)
	sums := make([]float64, 3*k)
	*a = AutoCorr{
		lags:    lags,
		sumProd: sums[:k:k],
		headSum: sums[k : 2*k : 2*k],
		tailSum: sums[2*k:],
	}
	for _, l := range lags {
		if l <= 0 {
			panic("sketch: autocorrelation lag must be positive")
		}
		if l > a.maxLag {
			a.maxLag = l
		}
	}
}

// Add appends the next sample of the series.
func (a *AutoCorr) Add(x float64) {
	a.sum += x
	a.w.Add(x)
	a.pend[a.np] = x
	a.np++
	if a.np == autoCorrBlock {
		a.Flush()
	}
}

// Flush folds the samples Add deferred into the per-lag sums and the ring.
// For each lag it walks the block in sample order, taking each sample's lag
// partner from the ring (with a wrapping cursor) or, for lags shorter than
// the block, from the block itself; the ring is written last, so every
// partner read is the value a per-sample update would have read.
func (a *AutoCorr) Flush() {
	m := a.np
	if m == 0 {
		return
	}
	pend := a.pend[:m]
	n0 := int(a.w.Count()) - m // samples already in the ring
	for j, l := range a.lags {
		sp, hs, ts := a.sumProd[j], a.headSum[j], a.tailSum[j]
		i := 0
		// Still filling the first window: x is in both the head and the
		// running tail.
		for ; i < m && n0+i < l; i++ {
			hs += pend[i]
			ts += pend[i]
		}
		// Partners before the block, in the ring.
		if i < m && i < l {
			c := (n0 + i - l) % a.maxLag
			for ; i < m && i < l; i++ {
				prev := float64(a.ring[c])
				sp += pend[i] * prev
				ts += pend[i] - prev
				if c++; c == a.maxLag {
					c = 0
				}
			}
		}
		// Partners inside the block, rounded as the ring would hold them.
		for ; i < m; i++ {
			prev := float64(float32(pend[i-l]))
			sp += pend[i] * prev
			ts += pend[i] - prev
		}
		a.sumProd[j], a.headSum[j], a.tailSum[j] = sp, hs, ts
	}
	i := 0
	for ; i < m && len(a.ring) < a.maxLag; i++ {
		a.ring = append(a.ring, float32(pend[i]))
	}
	if i < m {
		c := (n0 + i) % a.maxLag
		for ; i < m; i++ {
			a.ring[c] = float32(pend[i])
			if c++; c == a.maxLag {
				c = 0
			}
		}
	}
	a.np = 0
}

// N returns the number of samples observed.
func (a *AutoCorr) N() int { return int(a.w.Count()) }

// Mean returns the running mean of the series.
func (a *AutoCorr) Mean() float64 { return a.w.Mean() }

// StdDev returns the running population standard deviation of the series.
func (a *AutoCorr) StdDev() float64 { return a.w.StdDev() }

// RetainedRaw returns the most recent min(N, maxLag) samples, oldest first,
// appended to buf in the ring's native float32. While N is at most the
// largest configured lag this is the entire series observed so far, which
// lets a consumer that defers per-sample aggregation until a qualification
// threshold (below maxLag) recover every earlier sample without separate
// storage. The columnar fold path hands the result straight to
// Histogram.ObserveAll; a caller needing the float64 view converts per
// element, which is exact.
func (a *AutoCorr) RetainedRaw(buf []float32) []float32 {
	if a.np > 0 {
		a.Flush()
	}
	n := int(a.w.Count())
	if n <= len(a.ring) {
		return append(buf, a.ring[:n]...)
	}
	for i := n - a.maxLag; i < n; i++ {
		buf = append(buf, a.ring[i%a.maxLag])
	}
	return buf
}

// At returns the autocorrelation estimate at one of the configured lags. It
// returns 0 when the lag was not configured, fewer than lag+2 samples have
// arrived, or the series is constant.
func (a *AutoCorr) At(lag int) float64 {
	if a.np > 0 {
		a.Flush()
	}
	j := -1
	for i, l := range a.lags {
		if l == lag {
			j = i
			break
		}
	}
	n := int(a.w.Count())
	if j < 0 || n < lag+2 {
		return 0
	}
	denom := a.w.SumSqDev()
	if denom == 0 {
		return 0
	}
	mean := a.w.Mean()
	// sum over i in [lag, n) of x[i]          = sum - headSum
	// sum over i in [0, n-lag) of x[i]        = sum - tailSum
	num := a.sumProd[j] -
		mean*(a.sum-a.headSum[j]) -
		mean*(a.sum-a.tailSum[j]) +
		float64(n-lag)*mean*mean
	return num / denom
}
