// Package periodic detects the dominant period of a utilization series,
// following the AUTOPERIOD approach of Vlachos, Yu and Castelli ("On
// periodicity detection and structural periodic similarity", ICDM 2005),
// which the paper cites as the method behind its diurnal and hourly-peak
// pattern identification.
//
// The method has two stages:
//
//  1. Candidate periods are read off the periodogram: frequency bins whose
//     power exceeds a significance threshold become period hints N/k.
//  2. Each hint is validated on the autocorrelation function (ACF): a true
//     period sits on a hill of the ACF, so the hint is refined by
//     hill-climbing to the nearest local ACF maximum and accepted only if
//     that maximum is sufficiently high.
//
// Stage 2 filters the spectral-leakage false positives that a periodogram
// alone produces, and sharpens coarse frequency-domain estimates into exact
// sample lags.
package periodic

import (
	"math"
	"sort"
	"sync"

	"cloudlens/internal/fft"
	"cloudlens/internal/obs"
	"cloudlens/internal/stats"
)

var detectCalls = obs.Default.Counter("cloudlens_periodic_detect_total",
	"Series handed to periodic.Detect.")

// Period is a detected periodicity.
type Period struct {
	// Lag is the period in samples.
	Lag int `json:"lag"`
	// ACF is the autocorrelation at Lag (the hill's height), in [-1, 1].
	ACF float64 `json:"acf"`
	// Power is the periodogram power that generated the hint, normalized
	// so the strongest non-DC bin is 1.
	Power float64 `json:"power"`
}

// Options tunes detection; the zero value selects sensible defaults.
type Options struct {
	// MaxCandidates bounds how many periodogram hints are validated
	// (default 8).
	MaxCandidates int
	// MinACF is the autocorrelation a validated hill must reach
	// (default 0.3).
	MinACF float64
	// MinPower is the normalized periodogram power a bin needs to become
	// a hint (default 0.1).
	MinPower float64
	// SkipACFValidation ablates stage 2 of AUTOPERIOD: periodogram hints
	// are accepted without hill-climbing or the ACF-hill test. Exists to
	// demonstrate (in the ablation experiments) how many spectral-
	// leakage false positives the validation removes.
	SkipACFValidation bool
}

// DefaultMinACF is the default autocorrelation height a validated hill must
// reach. Exported so the streaming classifier, which evaluates the ACF at
// fixed target lags instead of hill-climbing a full ACF, validates against
// the same threshold.
const DefaultMinACF = 0.3

func (o Options) withDefaults() Options {
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 8
	}
	if o.MinACF == 0 {
		o.MinACF = DefaultMinACF
	}
	if o.MinPower == 0 {
		o.MinPower = 0.1
	}
	return o
}

// hint is a candidate period read off the periodogram.
type hint struct {
	lag   int
	power float64
}

// scratch is Detect's working memory. Every slice is overwritten over the
// range a call reads before it reads it, so a pooled scratch carries nothing
// from one series to the next; only the returned periods are allocated.
type scratch struct {
	centered []float64    // the series minus its mean
	spec     []complex128 // bins 0…m/2 of whichever transform ran last
	power    []float64    // |X[k]|² over all m bins
	acf      []float64    // lags 0…n/2
	hints    []hint
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sized returns *buf with length n, reallocating only to grow; what it
// holds is whatever the last call left there.
func sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// Detect returns the validated periods of the series, strongest
// autocorrelation first. Series shorter than eight samples or with no
// variance yield no periods.
//
// Both stages come from one spectrum. The centered series, zero-padded to
// m = 2·NextPow2(n), is transformed once. Its even bins are the
// NextPow2(n)-point periodogram the hints are read from (doubling the
// padding interleaves new bins between the old ones: X_m[2k] = X_{m/2}[k]);
// and because |X[k]|² over all m bins is real and even, its forward
// transform is m times the circular autocorrelation of the padded series
// (Wiener-Khinchin), which the 2x padding makes the linear one for every lag
// below n. Two real-input transforms of m/2 complex points each, O(n log n),
// which matters when classifying thousands of VMs.
func Detect(series []float64, opts Options) []Period {
	detectCalls.Inc()
	opts = opts.withDefaults()
	n := len(series)
	if n < 8 {
		return nil
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)

	mean := stats.Mean(series)
	centered := sized(&s.centered, n)
	variance := 0.0
	for i, v := range series {
		centered[i] = v - mean
		variance += centered[i] * centered[i]
	}
	if variance == 0 {
		return nil
	}

	padded := fft.NextPow2(n) // the periodogram's length
	m := 2 * padded           // the transform's
	spec := sized(&s.spec, padded+1)
	fft.TransformReal(spec, centered)
	power := sized(&s.power, m)
	for k, x := range spec {
		power[k] = real(x)*real(x) + imag(x)*imag(x)
	}
	for k := 1; k < padded; k++ {
		power[m-k] = power[k]
	}

	// Normalize against the strongest non-DC periodogram bin.
	maxPower := 0.0
	for k := 2; k <= padded; k += 2 {
		if power[k] > maxPower {
			maxPower = power[k]
		}
	}
	if maxPower == 0 {
		return nil
	}

	hints := s.hints[:0]
	for k := 1; k <= padded/2; k++ {
		p := power[2*k] / maxPower
		if p < opts.MinPower {
			continue
		}
		lag := int(math.Round(float64(padded) / float64(k)))
		// Periods must repeat at least twice within the series and be
		// longer than one sample to be meaningful.
		if lag < 2 || lag > n/2 {
			continue
		}
		hints = append(hints, hint{lag: lag, power: p})
	}
	s.hints = hints
	sort.Slice(hints, func(i, j int) bool { return hints[i].power > hints[j].power })
	if len(hints) > opts.MaxCandidates {
		hints = hints[:opts.MaxCandidates]
	}

	// The normalized ACF for lags [0, n/2].
	fft.TransformReal(spec, power)
	acf := sized(&s.acf, n/2+1)
	for lag := range acf {
		acf[lag] = real(spec[lag]) / float64(m) / variance
	}

	var periods []Period
	for _, h := range hints {
		lag := h.lag
		if !opts.SkipACFValidation {
			lag = hillClimb(acf, h.lag)
			if lag < 2 || lag > n/2 || !onHill(acf, lag) || acf[lag] < opts.MinACF {
				continue
			}
		}
		if hasLag(periods, lag) {
			continue
		}
		periods = append(periods, Period{Lag: lag, ACF: acf[lag], Power: h.power})
	}
	sort.Slice(periods, func(i, j int) bool { return periods[i].ACF > periods[j].ACF })
	return periods
}

func hasLag(periods []Period, lag int) bool {
	for _, p := range periods {
		if p.Lag == lag {
			return true
		}
	}
	return false
}

// Dominant returns the single best validated period and true, or the zero
// Period and false when the series has none.
func Dominant(series []float64, opts Options) (Period, bool) {
	ps := Detect(series, opts)
	if len(ps) == 0 {
		return Period{}, false
	}
	return ps[0], true
}

// hillClimb walks from lag to the nearest local maximum of the ACF.
func hillClimb(acf []float64, lag int) int {
	if lag < 0 || lag >= len(acf) {
		return -1
	}
	for {
		next := lag
		if lag+1 < len(acf) && acf[lag+1] > acf[next] {
			next = lag + 1
		}
		if lag-1 >= 1 && acf[lag-1] > acf[next] {
			next = lag - 1
		}
		if next == lag {
			return lag
		}
		lag = next
	}
}

// onHill reports whether lag sits on a genuine ACF hill: its value exceeds
// the ACF half a period away on both sides (where a true periodicity has
// troughs). This is the validation step that rejects spectral leakage.
func onHill(acf []float64, lag int) bool {
	half := lag / 2
	if half < 1 {
		return false
	}
	left := lag - half
	right := lag + half
	if left < 0 {
		return false
	}
	leftOK := acf[lag] > acf[left]
	rightOK := true
	if right < len(acf) {
		rightOK = acf[lag] > acf[right]
	}
	return leftOK && rightOK
}
