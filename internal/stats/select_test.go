package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// quantileValue maps a byte to a sample: NaN, ±Inf and both zeros on a few
// codes, otherwise one of a coarse grid of values, so samples tie often.
func quantileValue(b byte) float64 {
	switch b % 32 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return 0
	}
	return float64(int(b)-128) / 8
}

// FuzzQuantilesInPlace holds QuantilesInPlace's selection to the sort it
// replaced, sort.Float64s then quantileSorted. A sample is the fuzzed
// bytes, each mapped through quantileValue, followed by up to 4095 more
// values drawn from the same palette or from a continuous spread. The
// quantiles are the fuzzed q with q < 0, 0, 1, q > 1, NaN and Fig 6's
// four. Without a -0 in the sample the results must agree bit for bit;
// with one only ==, since a sort may leave -0 and +0 in either order.
func FuzzQuantilesInPlace(f *testing.F) {
	f.Add([]byte{40}, 0.5, uint16(0), int64(1))
	f.Add([]byte{40, 41}, 0.3, uint16(0), int64(2))
	f.Add([]byte{41, 40, 39}, 0.7, uint16(0), int64(3))
	f.Add([]byte{0, 0}, 0.5, uint16(0), int64(4))
	f.Add([]byte{3, 4, 3, 4, 40}, 0.25, uint16(0), int64(5))
	f.Add([]byte{1, 2, 0, 50, 50, 50}, 0.9, uint16(20), int64(6))
	f.Add([]byte{}, 0.95, uint16(2000), int64(7))
	f.Add([]byte{9}, 0.01, uint16(4095), int64(8))
	f.Fuzz(func(t *testing.T, data []byte, q float64, extra uint16, seed int64) {
		xs := make([]float64, 0, len(data)+int(extra%4096))
		for _, b := range data {
			xs = append(xs, quantileValue(b))
		}
		rng := rand.New(rand.NewSource(seed))
		spread := rng.Intn(2) == 0
		for range int(extra % 4096) {
			if spread {
				xs = append(xs, rng.NormFloat64())
			} else {
				xs = append(xs, quantileValue(byte(rng.Intn(256))))
			}
		}
		qs := []float64{q, -0.5, 0, 1, 1.5, math.NaN(), 0.25, 0.5, 0.75, 0.95}

		want := make([]float64, len(qs))
		sorted := make([]float64, 0, len(xs))
		negZero := false
		for _, x := range xs {
			if !math.IsNaN(x) {
				sorted = append(sorted, x)
			}
			negZero = negZero || (x == 0 && math.Signbit(x))
		}
		if len(sorted) > 0 {
			sort.Float64s(sorted)
			for i, q := range qs {
				want[i] = quantileSorted(sorted, q)
			}
		}
		got := QuantilesInPlace(append([]float64(nil), xs...), qs...)

		for i := range qs {
			g, w := got[i], want[i]
			switch {
			case math.IsNaN(w) || math.IsNaN(g):
				if !math.IsNaN(w) || !math.IsNaN(g) {
					t.Fatalf("n=%d q=%v: selection %v, sort %v", len(xs), qs[i], g, w)
				}
			case negZero:
				if g != w {
					t.Fatalf("n=%d q=%v: selection %v, sort %v", len(xs), qs[i], g, w)
				}
			case math.Float64bits(g) != math.Float64bits(w):
				t.Fatalf("n=%d q=%v: selection %v (%#x), sort %v (%#x)", len(xs), qs[i],
					g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	})
}
