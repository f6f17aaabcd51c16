package sketch

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"slices"
	"testing"
)

// stateOf is a's state with its deferred samples folded in, the state a
// per-sample update would hold. It flushes a deep copy, so a keeps its
// block pending and the state shares nothing with it: a test can keep the
// state while a sees more samples.
func stateOf(a *AutoCorr) AutoCorrState {
	c := *a
	c.ring = slices.Clone(a.ring)
	c.sumProd = slices.Clone(a.sumProd)
	c.headSum = slices.Clone(a.headSum)
	c.tailSum = slices.Clone(a.tailSum)
	return c.SharedState()
}

// fromState restores a new accumulator from s, on a copy of its lags.
func fromState(s AutoCorrState) (*AutoCorr, error) {
	a := new(AutoCorr)
	if err := a.Restore(slices.Clone(s.Lags), s); err != nil {
		return nil, err
	}
	return a, nil
}

// gobCycle pushes a state value through encoding/gob, so the round-trip
// tests cover a State's exported fields as a serializer sees them and not
// just the in-memory copy. (The checkpoint codec itself lays the same fields
// out by hand; internal/stream tests that format.)
func gobCycle(t *testing.T, in, out interface{}) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
}

// TestWelfordMergeAfterDecode pins the checkpoint property: encode a
// half-fed accumulator, decode it, fold the rest of the stream, and the
// result is bit-identical to the accumulator that never left memory.
func TestWelfordMergeAfterDecode(t *testing.T) {
	xs := sampleSeries(4000, 11)
	var live Welford
	for _, x := range xs[:1700] {
		live.Add(x)
	}
	var st WelfordState
	gobCycle(t, live.State(), &st)
	decoded := WelfordFromState(st)
	for _, x := range xs[1700:] {
		live.Add(x)
		decoded.Add(x)
	}
	if decoded.Count() != live.Count() || decoded.Mean() != live.Mean() || decoded.Variance() != live.Variance() {
		t.Fatalf("decoded (%d, %v, %v) != live (%d, %v, %v)",
			decoded.Count(), decoded.Mean(), decoded.Variance(),
			live.Count(), live.Mean(), live.Variance())
	}
}

func TestHistogramMergeAfterDecode(t *testing.T) {
	xs := sampleSeries(6000, 12)
	live := NewHistogram(0, 1, 400)
	for _, x := range xs[:2500] {
		live.Add(x)
	}
	var st HistogramState
	gobCycle(t, live.State(), &st)
	decoded, err := HistogramFromState(st)
	if err != nil {
		t.Fatalf("from state: %v", err)
	}
	for _, x := range xs[2500:] {
		live.Add(x)
		decoded.Add(x)
	}
	if decoded.Count() != live.Count() {
		t.Fatalf("count = %d, want %d", decoded.Count(), live.Count())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := decoded.Quantile(q), live.Quantile(q); got != want {
			t.Fatalf("q%.2f = %v, want %v", q, got, want)
		}
	}
	// A decoded sketch still merges with a live one of the same geometry.
	other := NewHistogram(0, 1, 400)
	other.Add(0.5)
	decoded.Merge(other)
	if decoded.Count() != live.Count()+1 {
		t.Fatalf("merge after decode count = %d, want %d", decoded.Count(), live.Count()+1)
	}

	if _, err := HistogramFromState(HistogramState{Lo: 1, Hi: 0, Counts: []float64{1}}); err == nil {
		t.Fatal("inverted-range state did not error")
	}
	if _, err := HistogramFromState(HistogramState{Lo: 0, Hi: 1}); err == nil {
		t.Fatal("binless state did not error")
	}
}

func TestAutoCorrMergeAfterDecode(t *testing.T) {
	r := rng(15)
	n := 2016
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.4 + 0.3*math.Sin(2*math.Pi*float64(i)/24) + 0.05*r.next()
	}
	lags := []int{6, 12, 24, 288, 432}
	live := NewAutoCorr(lags...)
	// Split mid-ring so the decoded accumulator resumes a partially wrapped
	// ring, the hardest alignment case.
	split := 700
	for _, x := range xs[:split] {
		live.Add(x)
	}
	var st AutoCorrState
	gobCycle(t, stateOf(live), &st)
	decoded, err := fromState(st)
	if err != nil {
		t.Fatalf("from state: %v", err)
	}
	for _, x := range xs[split:] {
		live.Add(x)
		decoded.Add(x)
	}
	if decoded.N() != live.N() || decoded.Mean() != live.Mean() || decoded.StdDev() != live.StdDev() {
		t.Fatalf("decoded moments differ: (%d, %v, %v) vs (%d, %v, %v)",
			decoded.N(), decoded.Mean(), decoded.StdDev(), live.N(), live.Mean(), live.StdDev())
	}
	for _, lag := range lags {
		if got, want := decoded.At(lag), live.At(lag); got != want {
			t.Fatalf("acf(%d) after decode = %v, want %v", lag, got, want)
		}
	}
	a, b := live.RetainedRaw(nil), decoded.RetainedRaw(nil)
	if len(a) != len(b) {
		t.Fatalf("retained lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retained[%d] = %v, want %v", i, b[i], a[i])
		}
	}

	if _, err := fromState(AutoCorrState{Lags: []int{3}, SumProd: []float64{1}}); err == nil {
		t.Fatal("mismatched sum slices did not error")
	}
	if _, err := fromState(AutoCorrState{
		Lags: []int{3}, Ring: make([]float32, 9),
		SumProd: []float64{0}, HeadSum: []float64{0}, TailSum: []float64{0},
	}); err == nil {
		t.Fatal("oversized ring did not error")
	}
	// Add indexes the ring by the sample count: a count the ring does not
	// back used to panic there, samples later.
	if _, err := fromState(AutoCorrState{
		Lags: []int{3}, Ring: make([]float32, 2), W: WelfordState{N: 113},
		SumProd: []float64{0}, HeadSum: []float64{0}, TailSum: []float64{0},
	}); err == nil {
		t.Fatal("a 2-sample ring under a count of 113 did not error")
	}
}

// TestAutoCorrSharedStateRestoresInPlace pins the checkpoint pair:
// SharedState reads as State does, sharing the sketch's slices instead of
// copying them, and Restore rebuilds in place on the caller's lag slice a
// sketch that continues bit for bit, without writing or keeping the state.
func TestAutoCorrSharedStateRestoresInPlace(t *testing.T) {
	lags := []int{3, 5, 40}
	live := NewAutoCorr(lags...)
	for i := 0; i < 61; i++ { // mid-block, past the largest lag
		live.Add(float64(i%7) / 7)
	}
	want := stateOf(live)
	shared := live.SharedState()
	if !reflect.DeepEqual(shared, want) {
		t.Fatalf("SharedState %+v differs from a flushed copy's %+v", shared, want)
	}
	if &shared.Ring[0] != &live.ring[0] || &shared.SumProd[0] != &live.sumProd[0] {
		t.Fatal("SharedState copied the ring or the sums")
	}

	var restored AutoCorr
	if err := restored.Restore(lags, want); err != nil {
		t.Fatal(err)
	}
	if &restored.lags[0] != &lags[0] || &restored.ring[0] == &want.Ring[0] {
		t.Fatal("Restore copied the lag slice or kept the state's ring")
	}
	kept := stateOf(live)
	for i := 0; i < 50; i++ {
		x := float64(i%5) / 5
		live.Add(x)
		restored.Add(x)
	}
	if got, w := restored.SharedState(), live.SharedState(); !reflect.DeepEqual(got, w) {
		t.Fatalf("restored sketch continues to %+v, the live one to %+v", got, w)
	}
	if !reflect.DeepEqual(want, kept) {
		t.Fatal("continuing the restored sketch wrote the state it came from")
	}
	if err := restored.Restore([]int{3, 5, 41}, want); err == nil {
		t.Fatal("Restore accepted a state of other lags")
	}
}
