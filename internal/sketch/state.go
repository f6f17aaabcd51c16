package sketch

import (
	"fmt"
	"slices"
)

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

// SharedState flushes the deferred samples into a in place, which leaves
// every read bit for bit as it was (Flush's contract), and returns the
// state with its slices shared with a, not copied: the caller encodes the
// state before a sees another sample.
func (a *AutoCorr) SharedState() AutoCorrState {
	a.Flush()
	return AutoCorrState{
		Lags:    a.lags,
		Ring:    a.ring,
		W:       a.w.State(),
		Sum:     a.sum,
		SumProd: a.sumProd,
		HeadSum: a.headSum,
		TailSum: a.tailSum,
	}
}

// Restore makes a, in place, the accumulator s was captured from, over
// lags. Every lag of lags must be among s.Lags; s may track more, as a state
// captured before its holder's lag set shrank does. a then keeps the sums of
// its own lags and the newest samples its largest lag reaches, laid out
// where its own Add would have put them, and continues exactly as an
// accumulator over lags alone: each lag's sums fold independently of the
// others, and a lag's partners are in the ring it keeps. The per-lag sum
// slices must all match s's lag count and the ring length must be the one
// the sample count implies under s's largest lag; mismatches indicate a
// corrupted or incompatible snapshot. lags is kept without copying, as Init
// keeps it, so many restored accumulators can share one lag set. The ring
// and the sums are copied into storage a owns and s is not written, so one
// state can be restored more than once. On error a is left as it was.
func (a *AutoCorr) Restore(lags []int, s AutoCorrState) error {
	if len(s.SumProd) != len(s.Lags) || len(s.HeadSum) != len(s.Lags) || len(s.TailSum) != len(s.Lags) {
		return fmt.Errorf("sketch: autocorr state has %d lags but %d/%d/%d sums",
			len(s.Lags), len(s.SumProd), len(s.HeadSum), len(s.TailSum))
	}
	maxLag := 0
	for _, l := range s.Lags {
		if l <= 0 {
			// Init panics on this; a decoded snapshot must get an error
			// instead.
			return fmt.Errorf("sketch: autocorr state carries non-positive lag %d", l)
		}
		maxLag = max(maxLag, l)
	}
	for _, l := range lags {
		if !slices.Contains(s.Lags, l) {
			return fmt.Errorf("sketch: autocorr state tracks lags %v, not %v", s.Lags, lags)
		}
	}
	// Add indexes the ring by the sample count, so the two must agree: the
	// ring holds every sample until it reaches the largest lag, then stays
	// that long.
	if want := min(s.W.N, int64(maxLag)); s.W.N < 0 || int64(len(s.Ring)) != want {
		return fmt.Errorf("sketch: autocorr ring holds %d samples, a count of %d under max lag %d needs %d",
			len(s.Ring), s.W.N, maxLag, want)
	}
	a.Init(lags...)
	a.w = WelfordFromState(s.W)
	a.sum = s.Sum
	for i, l := range lags {
		j := slices.Index(s.Lags, l)
		a.sumProd[i], a.headSum[i], a.tailSum[i] = s.SumProd[j], s.HeadSum[j], s.TailSum[j]
	}
	if a.maxLag == maxLag {
		a.ring = append([]float32(nil), s.Ring...)
		return nil
	}
	// Sample i sits at i mod the largest lag in either ring.
	if n, m := int(s.W.N), min(int(s.W.N), a.maxLag); m > 0 {
		a.ring = make([]float32, m)
		for i := n - m; i < n; i++ {
			a.ring[i%a.maxLag] = s.Ring[i%maxLag]
		}
	}
	return nil
}
