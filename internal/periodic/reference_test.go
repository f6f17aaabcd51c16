package periodic

import (
	"math"
	"math/bits"
	"sort"

	"cloudlens/internal/stats"
)

// ReferenceDetect hands referenceDetect to the external oracle test.
var ReferenceDetect = referenceDetect

// referenceDetect is Detect as it stood before the single real transform: a
// NextPow2(n)-point periodogram for the hints, then a forward and an inverse
// transform of twice that length for the ACF, three full complex transforms
// over freshly allocated slices. It is the reference the oracle test holds
// Detect against; its body and the helpers below it are the old code.
func referenceDetect(series []float64, opts Options) []Period {
	opts = opts.withDefaults()
	n := len(series)
	if n < 8 {
		return nil
	}
	mean := stats.Mean(series)
	centered := make([]float64, n)
	variance := 0.0
	for i, v := range series {
		centered[i] = v - mean
		variance += centered[i] * centered[i]
	}
	if variance == 0 {
		return nil
	}

	spectrum := referencePowerSpectrum(centered)
	padded := (len(spectrum) - 1) * 2

	// Normalize against the strongest non-DC bin.
	maxPower := 0.0
	for k := 1; k < len(spectrum); k++ {
		if spectrum[k] > maxPower {
			maxPower = spectrum[k]
		}
	}
	if maxPower == 0 {
		return nil
	}

	type hint struct {
		lag   int
		power float64
	}
	var hints []hint
	for k := 1; k < len(spectrum); k++ {
		p := spectrum[k] / maxPower
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
	sort.Slice(hints, func(i, j int) bool { return hints[i].power > hints[j].power })
	if len(hints) > opts.MaxCandidates {
		hints = hints[:opts.MaxCandidates]
	}

	acf := referenceAutocorrelation(centered, variance, n/2)

	var periods []Period
	seen := make(map[int]bool)
	for _, h := range hints {
		if opts.SkipACFValidation {
			if seen[h.lag] {
				continue
			}
			seen[h.lag] = true
			periods = append(periods, Period{Lag: h.lag, ACF: acf[h.lag], Power: h.power})
			continue
		}
		lag := hillClimb(acf, h.lag)
		if lag < 2 || lag > n/2 || seen[lag] {
			continue
		}
		if !onHill(acf, lag) {
			continue
		}
		if acf[lag] < opts.MinACF {
			continue
		}
		seen[lag] = true
		periods = append(periods, Period{Lag: lag, ACF: acf[lag], Power: h.power})
	}
	sort.Slice(periods, func(i, j int) bool { return periods[i].ACF > periods[j].ACF })
	return periods
}

// referenceAutocorrelation returns the normalized ACF of a centered series
// for lags [0, maxLag] by the Wiener-Khinchin theorem: inverse FFT of the
// power spectrum with 2x zero padding.
func referenceAutocorrelation(centered []float64, variance float64, maxLag int) []float64 {
	m := 1 << bits.Len(uint(2*len(centered)-1))
	x := make([]complex128, m)
	for i, v := range centered {
		x[i] = complex(v, 0)
	}
	referenceTransform(x, false)
	for i := range x {
		re, im := real(x[i]), imag(x[i])
		x[i] = complex(re*re+im*im, 0)
	}
	referenceTransform(x, true)
	acf := make([]float64, maxLag+1)
	for lag := 0; lag <= maxLag; lag++ {
		acf[lag] = real(x[lag]) / float64(m) / variance
	}
	return acf
}

// referencePowerSpectrum returns the one-sided periodogram of a real signal:
// the squared magnitude of each of the first N/2+1 spectral bins of the DFT
// zero-padded to the next power of two, normalized by the padded length.
func referencePowerSpectrum(signal []float64) []float64 {
	n := 1
	if len(signal) > 1 {
		n = 1 << bits.Len(uint(len(signal)-1))
	}
	spec := make([]complex128, n)
	for i, v := range signal {
		spec[i] = complex(v, 0)
	}
	referenceTransform(spec, false)
	half := n/2 + 1
	out := make([]float64, half)
	for k := 0; k < half; k++ {
		re, im := real(spec[k]), imag(spec[k])
		out[k] = (re*re + im*im) / float64(n)
	}
	return out
}

// referenceTransform is the in-place radix-2 DFT (inverse: without the 1/N
// scaling, which referenceAutocorrelation applies) with twiddles carried
// through the butterfly loop.
func referenceTransform(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.Len(uint(n-1)))
	if n <= 1 {
		return
	}
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		angle := -2 * math.Pi / float64(size)
		if inverse {
			angle = -angle
		}
		wStep := complex(math.Cos(angle), math.Sin(angle))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}
