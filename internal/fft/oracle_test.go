package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// referenceTransform is the transform as it stood before the plan tables:
// bit-reversal computed per element and each stage's twiddle carried through
// the butterfly loop by the recurrence w *= wStep. It is kept verbatim as
// the oracle Transform must reproduce bit for bit.
func referenceTransform(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("fft: length is not a power of two")
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	if n == 1 {
		return
	}
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Danielson-Lanczos butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		angle := -2 * math.Pi / float64(size)
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

// TestTransformEqualsRecurrenceReference: the tabulated twiddles are the
// recurrence's own values, so every output element is == the reference's.
func TestTransformEqualsRecurrenceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 2; n <= 8192; n <<= 1 {
		for trial := 0; trial < 3; trial++ {
			want := make([]complex128, n)
			for i := range want {
				want[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			got := append([]complex128(nil), want...)
			referenceTransform(want)
			Transform(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial %d: bin %d = %v, reference %v", n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTransformBitsEqualReference holds Transform to referenceTransform bit
// for bit, sign of zero included (== treats -0 and +0 alike), at every
// length from 1 to 16384 — odd and even stage counts both. The inputs mix
// random values with exact and negative zeros, whole zero rows and a lone
// impulse, where a reordered sum would surface as a flipped zero sign.
func TestTransformBitsEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	negZero := math.Copysign(0, -1)
	zeroish := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return negZero
		default:
			return rng.NormFloat64()
		}
	}
	for n := 1; n <= 16384; n <<= 1 {
		for _, in := range []struct {
			name string
			gen  func(i int) complex128
		}{
			{"random", func(int) complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }},
			{"zeros", func(int) complex128 { return complex(zeroish(), zeroish()) }},
			{"neg-zero", func(int) complex128 { return complex(negZero, negZero) }},
			{"real-only", func(int) complex128 { return complex(rng.NormFloat64(), negZero) }},
			{"impulse", func(i int) complex128 {
				if i == n/2 {
					return complex(negZero, 1)
				}
				return complex(0, negZero)
			}},
		} {
			want := make([]complex128, n)
			for i := range want {
				want[i] = in.gen(i)
			}
			got := append([]complex128(nil), want...)
			referenceTransform(want)
			Transform(got)
			for i := range got {
				g, w := got[i], want[i]
				if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
					t.Fatalf("n=%d %s: bin %d = %v, reference %v (bits differ)", n, in.name, i, g, w)
				}
			}
		}
	}
}

// naiveRealDFT returns bins 0…m/2 of the length-m DFT of x (zero-padded),
// by the definition. The m distinct angles are tabulated once, so the
// O(m²) sum does no trigonometry of its own.
func naiveRealDFT(x []float64, m int) []complex128 {
	cos, sin := make([]float64, m), make([]float64, m)
	for i := range cos {
		sin[i], cos[i] = math.Sincos(-2 * math.Pi * float64(i) / float64(m))
	}
	out := make([]complex128, m/2+1)
	for k := range out {
		var re, im float64
		for n, v := range x {
			a := (k * n) % m
			re += v * cos[a]
			im += v * sin[a]
		}
		out[k] = complex(re, im)
	}
	return out
}

func TestTransformRealMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	random := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	for m := 4; m <= 8192; m <<= 1 {
		if testing.Short() && m > 1024 {
			break
		}
		constant := make([]float64, m)
		for i := range constant {
			constant[i] = 0.37
		}
		impulse := make([]float64, m)
		impulse[1] = 1
		for _, tt := range []struct {
			name string
			x    []float64
		}{
			{"zero", make([]float64, m)},
			{"impulse", impulse},
			{"constant", constant},
			{"random", random(m)},
			{"padded-odd", random(m/2 + 1)}, // odd length, zero tail
			{"padded-short", random(3)},
			{"empty", nil},
		} {
			t.Run(fmt.Sprintf("m=%d/%s", m, tt.name), func(t *testing.T) {
				in := append([]float64(nil), tt.x...)
				got := make([]complex128, m/2+1)
				for i := range got {
					got[i] = complex(math.NaN(), math.NaN()) // dirty buffer: every bin must be written
				}
				TransformReal(got, in)
				norm := 0.0
				for i, v := range tt.x {
					if in[i] != v {
						t.Fatalf("input sample %d modified", i)
					}
					norm += v * v
				}
				tol := 1e-9 * math.Sqrt(norm)
				for k, want := range naiveRealDFT(tt.x, m) {
					if d := got[k] - want; !(math.Hypot(real(d), imag(d)) <= tol) {
						t.Fatalf("bin %d = %v, want %v (tolerance %g)", k, got[k], want, tol)
					}
				}
			})
		}
	}
}

func TestTransformRealPanics(t *testing.T) {
	for _, tt := range []struct {
		name string
		bins int
		n    int
	}{
		{"no bins", 0, 0},
		{"one bin", 1, 0},
		{"bins not 2^k+1", 4, 2},
		{"signal too long", 5, 9},
	} {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			TransformReal(make([]complex128, tt.bins), make([]float64, tt.n))
		})
	}
}

// TestPlansBuildOnceUnderContention has many goroutines take first use of
// the same lengths at once; run it under -race and at several -cpu values.
func TestPlansBuildOnceUnderContention(t *testing.T) {
	const m = 1 << 13
	x := make([]float64, m)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	want := make([]complex128, m/2+1)
	TransformReal(want, x)
	plans = [bits.UintSize]plan{} // forget every plan, so the goroutines below race to build them
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for size := 4; size <= m; size <<= 1 {
				got := make([]complex128, size/2+1)
				TransformReal(got, x[:size])
				if size == m {
					for k := range got {
						if got[k] != want[k] {
							t.Errorf("bin %d differs between goroutines", k)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
