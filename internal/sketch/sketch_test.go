package sketch

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"cloudlens/internal/stats"
)

// rng is a tiny deterministic generator (splitmix64) so the tests do not
// depend on math/rand ordering.
type rng uint64

func (r *rng) next() float64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

func sampleSeries(n int, seed uint64) []float64 {
	r := rng(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.next()
	}
	return out
}

func TestWelfordMatchesBatchStats(t *testing.T) {
	xs := sampleSeries(5000, 1)
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if got, want := w.Mean(), stats.Mean(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	if got, want := w.Variance(), stats.Variance(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("variance = %v, want %v", got, want)
	}
	if got, want := w.StdDev(), stats.StdDev(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", got, want)
	}
}

func TestWelfordMergeEqualsConcatenation(t *testing.T) {
	xs := sampleSeries(3000, 2)
	for _, split := range []int{0, 1, 1500, 2999, 3000} {
		var a, b, all Welford
		for _, x := range xs[:split] {
			a.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
		}
		for _, x := range xs {
			all.Add(x)
		}
		a.Merge(b)
		if a.Count() != all.Count() {
			t.Fatalf("split %d: count = %d, want %d", split, a.Count(), all.Count())
		}
		if math.Abs(a.Mean()-all.Mean()) > 1e-12 {
			t.Fatalf("split %d: mean = %v, want %v", split, a.Mean(), all.Mean())
		}
		if math.Abs(a.Variance()-all.Variance()) > 1e-10 {
			t.Fatalf("split %d: variance = %v, want %v", split, a.Variance(), all.Variance())
		}
	}
}

func TestHistogramQuantileWithinBinWidth(t *testing.T) {
	xs := sampleSeries(20000, 3)
	h := NewHistogram(0, 1, 400)
	for _, x := range xs {
		h.Add(x)
	}
	binWidth := 1.0 / 400
	for _, q := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		got := h.Quantile(q)
		want := stats.Quantile(xs, q)
		if math.Abs(got-want) > binWidth {
			t.Fatalf("q%.2f = %v, want %v (±%v)", q, got, want, binWidth)
		}
	}
}

func TestHistogramClampsAndMerges(t *testing.T) {
	a := NewHistogram(0, 1, 10)
	b := NewHistogram(0, 1, 10)
	a.Add(-5)
	a.Add(0.31)
	b.Add(7)
	b.Add(0.32)
	a.Merge(b)
	if a.Count() != 4 {
		t.Fatalf("count = %d, want 4", a.Count())
	}
	if q := a.Quantile(0.5); q < 0 || q > 1 {
		t.Fatalf("median %v outside sketch range", q)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched geometries did not panic")
		}
	}()
	a.Merge(NewHistogram(0, 2, 10))
}

// countingValues draws the values FuzzHistogramCounting counts: every
// bin edge of the geometry (at most 64 of them) with its neighbouring
// floats on either side, 0, 1 and the largest float64 below 1, values
// beyond both ends of the range, the extreme finite floats, and uniform
// draws inside the range.
func countingValues(lo, hi float64, bins int, seed uint64) []float64 {
	r := rng(seed)
	width := hi - lo
	xs := []float64{0, 1, math.Nextafter(1, 0), lo, hi, -math.MaxFloat64, math.MaxFloat64}
	step := max(1, bins/64)
	for k := 0; k <= bins; k += step {
		e := lo + float64(k)*width/float64(bins)
		xs = append(xs, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
	}
	for i := 0; i < 64; i++ {
		xs = append(xs,
			lo+width*r.next(),
			lo-width*(1+r.next()),
			hi+width*r.next())
	}
	return xs
}

// FuzzHistogramCounting draws a histogram geometry and counts the same
// values through Histogram.Add, a Counter handle, and (as float32)
// ObserveAll: the three must agree bin for bin, since they share one bin
// expression and the streaming pipeline mixes them on one sketch.
func FuzzHistogramCounting(f *testing.F) {
	f.Add(0.0, 1.0, uint16(400), uint64(1))
	f.Add(0.0, 1.0, uint16(2000), uint64(2))
	f.Add(-3.5, 2.25, uint16(7), uint64(3))
	f.Add(1e-300, 3e-300, uint16(1), uint64(4))
	f.Add(-1e300, 1e300, uint16(9), uint64(5))
	f.Fuzz(func(t *testing.T, lo, hi float64, bins uint16, seed uint64) {
		width := hi - lo
		if !(width > 0) || math.IsInf(width, 0) {
			return
		}
		n := 1 + int(bins)%4096
		xs := countingValues(lo, hi, n, seed)
		byAdd, byCounter := NewHistogram(lo, hi, n), NewHistogram(lo, hi, n)
		c := byCounter.Counter()
		for _, x := range xs {
			byAdd.Add(x)
			c.Add(x)
		}
		if a, b := byAdd.State(), byCounter.State(); !reflect.DeepEqual(a, b) {
			t.Fatalf("geometry [%v, %v]/%d: Counter.Add state %+v, Add state %+v", lo, hi, n, b, a)
		}
		xs32 := make([]float32, len(xs))
		for i, x := range xs {
			xs32[i] = float32(x)
		}
		byObserve, byAdd32, byCounter32 := NewHistogram(lo, hi, n), NewHistogram(lo, hi, n), NewHistogram(lo, hi, n)
		byObserve.ObserveAll(xs32)
		c32 := byCounter32.Counter()
		for _, x := range xs32 {
			byAdd32.Add(float64(x))
			c32.Add(float64(x))
		}
		want := byAdd32.State()
		for name, h := range map[string]*Histogram{"ObserveAll": byObserve, "Counter.Add": byCounter32} {
			if got := h.State(); !reflect.DeepEqual(got, want) {
				t.Fatalf("geometry [%v, %v]/%d, float32 values: %s state %+v, Add state %+v", lo, hi, n, name, got, want)
			}
		}
	})
}

// batchACF is the reference definition the streaming estimate must match:
// the lag-L autocorrelation normalized by the full sum of squared
// deviations, exactly as package periodic computes it.
func batchACF(xs []float64, lag int) float64 {
	m := stats.Mean(xs)
	var num, denom float64
	for i, x := range xs {
		d := x - m
		denom += d * d
		if i >= lag {
			num += d * (xs[i-lag] - m)
		}
	}
	if denom == 0 {
		return 0
	}
	return num / denom
}

func TestAutoCorrMatchesBatchACF(t *testing.T) {
	// A noisy periodic series: period 24 plus jitter.
	r := rng(8)
	n := 2016
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.4 + 0.3*math.Sin(2*math.Pi*float64(i)/24) + 0.05*r.next()
	}
	lags := []int{3, 6, 12, 24, 288}
	a := NewAutoCorr(lags...)
	for _, x := range xs {
		a.Add(x)
	}
	if a.N() != n {
		t.Fatalf("n = %d, want %d", a.N(), n)
	}
	for _, lag := range lags {
		got := a.At(lag)
		want := batchACF(xs, lag)
		if math.Abs(got-want) > 1e-4 { // float32 ring
			t.Fatalf("acf(%d) = %v, want %v", lag, got, want)
		}
	}
	if a.At(17) != 0 {
		t.Fatalf("unconfigured lag returned %v, want 0", a.At(17))
	}
}

func TestAutoCorrShortSeries(t *testing.T) {
	a := NewAutoCorr(12)
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
	}
	if got := a.At(12); got != 0 {
		t.Fatalf("acf on series shorter than lag = %v, want 0", got)
	}
	c := NewAutoCorr(4)
	for i := 0; i < 100; i++ {
		c.Add(0.5)
	}
	if got := c.At(4); got != 0 {
		t.Fatalf("acf of constant series = %v, want 0", got)
	}
}

// refAutoCorr is the exact oracle for AutoCorr's deferred block: an
// accumulator fed only through add, which is AutoCorr.Add as it was before
// samples waited in a block — every per-lag term and the ring updated on
// every sample. Nothing is ever pending in it, so its read methods (the
// production ones, unchanged) never flush.
type refAutoCorr struct{ AutoCorr }

func newRefAutoCorr(lags ...int) *refAutoCorr {
	r := new(refAutoCorr)
	r.Init(lags...)
	return r
}

func (r *refAutoCorr) add(x float64) {
	a := &r.AutoCorr
	n := int(a.w.Count())
	for j, l := range a.lags {
		if n >= l {
			prev := float64(a.ring[(n-l)%a.maxLag])
			a.sumProd[j] += x * prev
			a.tailSum[j] += x - prev
		} else {
			a.headSum[j] += x
			a.tailSum[j] += x
		}
	}
	if len(a.ring) < a.maxLag {
		a.ring = append(a.ring, float32(x))
	} else {
		a.ring[n%a.maxLag] = float32(x)
	}
	a.sum += x
	a.w.Add(x)
}

// The lags the streaming classifier tracks on the five-minute and the
// one-minute grid.
var (
	lags5m = []int{12, 6, 18, 3, 9, 288, 144, 432}
	lags1m = []int{60, 30, 90, 15, 45, 1440, 720, 2160}
)

// acOp is one step of an accumulator script: add a sample, flush, compare
// every read against the oracle, or take a State mid-block and continue a
// restored copy alongside.
type acOp struct {
	kind byte
	x    float64
}

const (
	opAdd byte = iota
	opFlush
	opRead
	opRoundTrip
)

// runAutoCorrScript feeds one script to the blocked accumulator, to the
// oracle, and to every copy restored from a mid-script State, and requires
// all of them to agree with the oracle bit for bit at every read and at the
// end.
func runAutoCorrScript(t testing.TB, lags []int, ops []acOp) {
	t.Helper()
	ref := newRefAutoCorr(lags...)
	got := NewAutoCorr(lags...)
	var restored []*AutoCorr
	for i, op := range ops {
		switch op.kind {
		case opAdd:
			ref.add(op.x)
			got.Add(op.x)
			for _, c := range restored {
				c.Add(op.x)
			}
		case opFlush:
			got.Flush()
		case opRead:
			requireSameAutoCorr(t, i, got, ref)
		case opRoundTrip:
			np := got.np
			st := got.State()
			if got.np != np {
				t.Fatalf("op %d: State flushed the accumulator (%d pending before, %d after)", i, np, got.np)
			}
			c, err := AutoCorrFromState(st)
			if err != nil {
				t.Fatalf("op %d: from state: %v", i, err)
			}
			restored = append(restored, c)
		}
	}
	requireSameAutoCorr(t, len(ops), got, ref)
	for _, c := range restored {
		requireSameAutoCorr(t, len(ops), c, ref)
	}
}

func requireSameAutoCorr(t testing.TB, op int, got *AutoCorr, ref *refAutoCorr) {
	t.Helper()
	// State first: it must export what the oracle holds without flushing,
	// and the reads below flush.
	if g, w := got.State(), ref.State(); !reflect.DeepEqual(g, w) {
		t.Fatalf("op %d: State differs from the per-sample oracle:\n got %+v\nwant %+v", op, g, w)
	}
	same := func(what string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("op %d: %s = %v (%#x), oracle %v (%#x)", op, what, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if got.N() != ref.N() {
		t.Fatalf("op %d: N = %d, oracle %d", op, got.N(), ref.N())
	}
	same("Mean", got.Mean(), ref.Mean())
	same("StdDev", got.StdDev(), ref.StdDev())
	for _, l := range ref.lags {
		same("At", got.At(l), ref.At(l))
		same("At(unconfigured)", got.At(l+ref.maxLag), ref.At(l+ref.maxLag))
	}
	g64, w64 := got.Retained(nil), ref.Retained(nil)
	if len(g64) != len(w64) {
		t.Fatalf("op %d: Retained holds %d samples, oracle %d", op, len(g64), len(w64))
	}
	for i := range w64 {
		same("Retained", g64[i], w64[i])
	}
	g32, w32 := got.RetainedRaw(nil), ref.RetainedRaw(nil)
	if len(g32) != len(w32) {
		t.Fatalf("op %d: RetainedRaw holds %d samples, oracle %d", op, len(g32), len(w32))
	}
	for i := range w32 {
		if math.Float32bits(g32[i]) != math.Float32bits(w32[i]) {
			t.Fatalf("op %d: RetainedRaw[%d] = %v, oracle %v", op, i, g32[i], w32[i])
		}
	}
}

// TestAutoCorrBlocksMatchPerSample holds the blocked accumulator to the
// per-sample oracle on random lag sets (and both grids' classifier sets),
// random finite series, and random flush, read and State points.
func TestAutoCorrBlocksMatchPerSample(t *testing.T) {
	r := rng(31)
	pick := func(n int) int { return int(r.next() * float64(n)) }
	for trial := 0; trial < 120; trial++ {
		var lags []int
		switch trial % 4 {
		case 0:
			lags = lags5m
		case 1:
			lags = lags1m
		default:
			for k := 1 + pick(8); k > 0; k-- {
				if pick(2) == 0 {
					lags = append(lags, 1+pick(20)) // shorter than a block
				} else {
					lags = append(lags, 1+pick(600))
				}
			}
		}
		maxLag := slices.Max(lags)
		n := pick(3 * maxLag)
		if trial%4 < 2 {
			n = maxLag + 200 + pick(maxLag)
		}
		var ops []acOp
		level := r.next()
		for i := 0; i < n; i++ {
			var x float64
			switch pick(10) {
			case 0:
				x = level // runs of a repeated value
			case 1:
				x = (r.next() - 0.5) * 1e4
			default:
				x = 0.4 + 0.3*math.Sin(2*math.Pi*float64(i)/float64(1+lags[0])) + 0.1*r.next()
			}
			ops = append(ops, acOp{kind: opAdd, x: x})
			switch p := r.next(); {
			case p < 0.02:
				ops = append(ops, acOp{kind: opFlush})
			case p < 0.025:
				ops = append(ops, acOp{kind: opRead})
			case p < 0.027:
				ops = append(ops, acOp{kind: opRoundTrip})
			}
		}
		runAutoCorrScript(t, lags, ops)
	}
}

// FuzzAutoCorrBlocks decodes a lag set and a script of adds, flushes, reads
// and State round trips from the input and holds the blocked accumulator
// to the per-sample oracle. The first byte picks the five-minute or the
// one-minute classifier lags or a lag set read from the input (two bytes a
// lag); then each op byte is an add of the next two bytes as a value in
// [-32.768, 32.767], a run of 16·(next byte) generated samples (so the
// large lags wrap without kilobytes of input), a flush, a read or a round
// trip.
func FuzzAutoCorrBlocks(f *testing.F) {
	f.Add([]byte{0, 4, 255, 6, 7, 0, 1, 5, 2, 0, 9, 3, 4, 40, 7, 6})
	f.Add([]byte{1, 4, 200, 7, 5, 4, 150, 6, 7, 4, 3, 6})
	f.Add([]byte{2, 3, 0, 2, 0, 15, 1, 200, 4, 80, 0, 1, 2, 5, 6, 7, 4, 30, 6})
	f.Add([]byte{3, 1, 0, 0, 0, 10, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var lags []int
		switch data[0] % 3 {
		case 0:
			lags = lags5m
		case 1:
			lags = lags1m
		}
		data = data[1:]
		if lags == nil {
			if len(data) == 0 {
				return
			}
			k := 1 + int(data[0]%8)
			data = data[1:]
			for ; k > 0 && len(data) >= 2; k-- {
				lags = append(lags, 1+int(binary.LittleEndian.Uint16(data)%2200))
				data = data[2:]
			}
			if len(lags) == 0 {
				return
			}
		}
		var ops []acOp
		gen := rng(len(data))
		for len(data) > 0 {
			op := data[0] % 8
			data = data[1:]
			switch {
			case op < 4 && len(data) >= 2:
				x := float64(int16(binary.LittleEndian.Uint16(data))) / 1000
				data = data[2:]
				ops = append(ops, acOp{kind: opAdd, x: x})
			case op == 4 && len(data) >= 1:
				for i := 16 * int(data[0]); i > 0; i-- {
					ops = append(ops, acOp{kind: opAdd, x: gen.next()})
				}
				data = data[1:]
			case op == 5:
				ops = append(ops, acOp{kind: opFlush})
			case op == 6:
				ops = append(ops, acOp{kind: opRead})
			case op == 7:
				ops = append(ops, acOp{kind: opRoundTrip})
			}
		}
		runAutoCorrScript(t, lags, ops)
	})
}
