package fft

import (
	"math"
	"testing"
)

func TestNextPow2(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, tt := range tests {
		if got := NextPow2(tt.in); got != tt.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestTransformImpulse(t *testing.T) {
	// DFT of a unit impulse is flat ones.
	x := make([]complex128, 8)
	x[0] = 1
	Transform(x)
	for k, v := range x {
		if math.Abs(real(v)-1) > 1e-12 || math.Abs(imag(v)) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestTransformConstant(t *testing.T) {
	// DFT of a constant is all mass in the DC bin.
	n := 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = 2
	}
	Transform(x)
	if math.Abs(real(x[0])-float64(2*n)) > 1e-9 {
		t.Fatalf("DC bin = %v, want %d", x[0], 2*n)
	}
	for k := 1; k < n; k++ {
		if math.Abs(real(x[k])) > 1e-9 || math.Abs(imag(x[k])) > 1e-9 {
			t.Fatalf("bin %d = %v, want 0", k, x[k])
		}
	}
}

func TestTransformSine(t *testing.T) {
	// A pure sine at bin 3 concentrates power in bins 3 and n-3.
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*3*float64(i)/float64(n)), 0)
	}
	Transform(x)
	for k := 0; k < n; k++ {
		mag := real(x[k])*real(x[k]) + imag(x[k])*imag(x[k])
		if k == 3 || k == n-3 {
			if mag < 100 {
				t.Fatalf("expected strong peak at bin %d, got %v", k, mag)
			}
			continue
		}
		if mag > 1e-12 {
			t.Fatalf("leakage at bin %d: %v", k, mag)
		}
	}
}

func TestTransformPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Transform(make([]complex128, 3))
}

func TestTransformEmptyAndSingle(t *testing.T) {
	Transform(nil) // must not panic
	x := []complex128{5}
	Transform(x)
	if x[0] != 5 {
		t.Fatalf("1-point DFT changed the value: %v", x[0])
	}
}
