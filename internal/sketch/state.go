package sketch

import "fmt"

// Exported state mirrors of every sketch type. A State value captures the
// complete accumulator — decoding it and folding further samples produces
// exactly the sketch that was never serialized — and carries only exported
// fields, which the streaming pipeline's checkpoint codec (internal/stream
// codec.go) lays out field by field and any reflective encoder can walk.

// WelfordState is the serializable form of a Welford accumulator.
type WelfordState struct {
	N    int64
	Mean float64
	M2   float64
}

// State captures the accumulator.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2}
}

// WelfordFromState reconstructs the accumulator a State was captured from.
func WelfordFromState(s WelfordState) Welford {
	return Welford{n: s.N, mean: s.Mean, m2: s.M2}
}

// HistogramState is the serializable form of a Histogram sketch.
type HistogramState struct {
	Lo, Hi float64
	Counts []float64
	N      int64
}

// State captures the sketch. The returned Counts slice is a copy, so the
// state stays valid while the live sketch keeps counting.
func (h *Histogram) State() HistogramState {
	return HistogramState{
		Lo:     h.Lo,
		Hi:     h.Hi,
		Counts: append([]float64(nil), h.counts...),
		N:      h.n,
	}
}

// HistogramFromState reconstructs the sketch a State was captured from. It
// rejects states with impossible geometry (a truncated or hand-built
// snapshot), since a silently empty sketch would corrupt downstream
// quantiles.
func HistogramFromState(s HistogramState) (*Histogram, error) {
	if !(s.Hi > s.Lo) || len(s.Counts) == 0 {
		return nil, fmt.Errorf("sketch: invalid histogram state (lo=%v hi=%v bins=%d)", s.Lo, s.Hi, len(s.Counts))
	}
	return &Histogram{
		Lo:     s.Lo,
		Hi:     s.Hi,
		counts: append([]float64(nil), s.Counts...),
		n:      s.N,
	}, nil
}

// CorrState is the serializable form of a Corr accumulator.
type CorrState struct {
	N        int64
	MX, MY   float64
	CXY      float64
	SXX, SYY float64
}

// State captures the accumulator.
func (c *Corr) State() CorrState {
	return CorrState{N: c.n, MX: c.mx, MY: c.my, CXY: c.cxy, SXX: c.sxx, SYY: c.syy}
}

// CorrFromState reconstructs the accumulator a State was captured from.
func CorrFromState(s CorrState) Corr {
	return Corr{n: s.N, mx: s.MX, my: s.MY, cxy: s.CXY, sxx: s.SXX, syy: s.SYY}
}

// AutoCorrState is the serializable form of an AutoCorr accumulator: the
// configured lags, the sample ring, and every running sum.
type AutoCorrState struct {
	Lags    []int
	Ring    []float32
	W       WelfordState
	Sum     float64
	SumProd []float64
	HeadSum []float64
	TailSum []float64
}

// State captures the accumulator. All slices are copies.
func (a *AutoCorr) State() AutoCorrState {
	return AutoCorrState{
		Lags:    append([]int(nil), a.lags...),
		Ring:    append([]float32(nil), a.ring...),
		W:       a.w.State(),
		Sum:     a.sum,
		SumProd: append([]float64(nil), a.sumProd...),
		HeadSum: append([]float64(nil), a.headSum...),
		TailSum: append([]float64(nil), a.tailSum...),
	}
}

// AutoCorrFromState reconstructs the accumulator a State was captured from.
// The per-lag sum slices must all match the lag count and the ring length
// must be the one the sample count implies; mismatches indicate a corrupted
// or incompatible snapshot.
func AutoCorrFromState(s AutoCorrState) (*AutoCorr, error) {
	if len(s.SumProd) != len(s.Lags) || len(s.HeadSum) != len(s.Lags) || len(s.TailSum) != len(s.Lags) {
		return nil, fmt.Errorf("sketch: autocorr state has %d lags but %d/%d/%d sums",
			len(s.Lags), len(s.SumProd), len(s.HeadSum), len(s.TailSum))
	}
	for _, l := range s.Lags {
		if l <= 0 {
			// NewAutoCorr panics on this; a decoded snapshot must get an
			// error instead.
			return nil, fmt.Errorf("sketch: autocorr state carries non-positive lag %d", l)
		}
	}
	a := NewAutoCorr(s.Lags...)
	// Add indexes the ring by the sample count, so the two must agree: the
	// ring holds every sample until it reaches the largest lag, then stays
	// that long.
	if want := min(s.W.N, int64(a.maxLag)); s.W.N < 0 || int64(len(s.Ring)) != want {
		return nil, fmt.Errorf("sketch: autocorr ring holds %d samples, a count of %d under max lag %d needs %d",
			len(s.Ring), s.W.N, a.maxLag, want)
	}
	a.ring = append(a.ring[:0], s.Ring...)
	a.w = WelfordFromState(s.W)
	a.sum = s.Sum
	copy(a.sumProd, s.SumProd)
	copy(a.headSum, s.HeadSum)
	copy(a.tailSum, s.TailSum)
	return a, nil
}
