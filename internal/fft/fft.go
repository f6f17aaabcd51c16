// Package fft implements an iterative radix-2 fast Fourier transform on
// complex128 slices, and the real-input transform built on it. It exists to
// power the periodogram and autocorrelation in package periodic (the
// period-detection approach of Vlachos et al. that the paper cites for
// identifying diurnal and hourly-peak utilization patterns) without any
// dependency outside the standard library.
package fft

import (
	"math"
	"math/bits"
	"sync"
)

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// plan is everything about one transform length n that does not depend on
// the data. It is built on the first transform of that length and read-only
// afterwards; plans are keyed by length alone, so nothing a caller passes in
// outlives its call.
type plan struct {
	once sync.Once
	// swaps lists the bit-reversal permutation as index pairs (i, j), i < j.
	swaps []uint32
	// twiddles holds every stage's factors: the stage that combines blocks
	// of half elements reads twiddles[half-1 : 2*half-1]. Each stage's run
	// comes from the recurrence w(0) = 1, w(k+1) = w(k)·wStep, not from
	// Sincos: the recurrence's rounding is part of every output recorded
	// so far (the golden hashes), and a more accurate table would move them.
	twiddles []complex128
	// untangle[k] = exp(-2πi·k/2n) for k = 0…n/2, straight from
	// math.Sincos: the factors TransformReal needs to split an n-point
	// transform of packed sample pairs into a 2n-point real spectrum.
	untangle []complex128
}

// plans is indexed by log2 of the transform length.
var plans [bits.UintSize]plan

func planFor(n int) *plan {
	p := &plans[bits.TrailingZeros(uint(n))]
	p.once.Do(func() { p.build(n) })
	return p
}

func (p *plan) build(n int) {
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			p.swaps = append(p.swaps, uint32(i), uint32(j))
		}
	}
	p.twiddles = make([]complex128, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		angle := -2 * math.Pi / float64(size)
		wStep := complex(math.Cos(angle), math.Sin(angle))
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			p.twiddles[half-1+k] = w
			w *= wStep
		}
	}
	p.untangle = make([]complex128, n/2+1)
	for k := range p.untangle {
		sin, cos := math.Sincos(-math.Pi * float64(k) / float64(n))
		p.untangle[k] = complex(cos, sin)
	}
}

// Transform computes the in-place forward DFT of x. The length of x must be
// a power of two; Transform panics otherwise. The convention is
// X[k] = sum_n x[n] * exp(-2*pi*i*k*n/N), with no scaling.
func Transform(x []complex128) {
	n := len(x)
	if n&(n-1) != 0 {
		panic("fft: length is not a power of two")
	}
	if n < 2 {
		return
	}
	p := planFor(n)
	// Bit-reversal permutation.
	for s := 0; s+1 < len(p.swaps); s += 2 {
		i, j := p.swaps[s], p.swaps[s+1]
		x[i], x[j] = x[j], x[i]
	}
	// Danielson-Lanczos butterflies.
	for half := 1; half < n; half <<= 1 {
		size := half << 1
		tw := p.twiddles[half-1 : size-1]
		for start := 0; start < n; start += size {
			lo := x[start : start+half]
			hi := x[start+half : start+size]
			lo, hi = lo[:len(tw)], hi[:len(tw)]
			for k, w := range tw {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// TransformReal computes the forward DFT of a real signal. x, zero-padded to
// length m = 2·(len(dst)−1), is transformed under Transform's convention and
// bins 0…m/2 are stored in dst; the other bins are their conjugates,
// X[m−k] = conj(X[k]). m must be a power of two no shorter than x;
// TransformReal panics otherwise. x is not modified.
//
// The cost is one m/2-point complex transform rather than an m-point one:
// the samples are packed in pairs, z[j] = x[2j] + i·x[2j+1], whose
// transform Z carries the transforms E and O of the even and odd samples as
// E[k] = (Z[k] + conj Z[m/2−k])/2 and O[k] = (Z[k] − conj Z[m/2−k])/2i, and
// X[k] = E[k] + exp(-2πi·k/m)·O[k].
func TransformReal(dst []complex128, x []float64) {
	h := len(dst) - 1
	if h < 1 || h&(h-1) != 0 {
		panic("fft: real transform needs 2^k+1 output bins")
	}
	if len(x) > 2*h {
		panic("fft: signal longer than the transform")
	}
	z := dst[:h]
	j := 0
	for ; 2*j+1 < len(x); j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	if len(x)&1 == 1 {
		z[j] = complex(x[len(x)-1], 0)
		j++
	}
	for ; j < h; j++ {
		z[j] = 0
	}
	Transform(z)

	// Untangle in place: bins k and h-k are each other's partners, so every
	// pair is read and written together. Bin 0 yields X[0] and X[h].
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[h] = complex(real(z0)-imag(z0), 0)
	if h == 1 {
		return
	}
	w := planFor(h).untangle
	for k := 1; k < h/2; k++ {
		a, b := z[k], z[h-k]
		er, ei := 0.5*(real(a)+real(b)), 0.5*(imag(a)-imag(b))
		or, oi := 0.5*(imag(a)+imag(b)), -0.5*(real(a)-real(b))
		wr, wi := real(w[k]), imag(w[k])
		tr, ti := wr*or-wi*oi, wr*oi+wi*or
		z[k] = complex(er+tr, ei+ti)
		z[h-k] = complex(er-tr, ti-ei)
	}
	mid := z[h/2]
	dst[h/2] = complex(real(mid), -imag(mid))
}
