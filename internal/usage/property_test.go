package usage

import (
	"testing"
	"testing/quick"

	"cloudlens/internal/core"
	"cloudlens/internal/sim"
)

// randomValidParams builds a Params from arbitrary quick-generated bytes,
// constrained to the valid parameter space.
func randomValidParams(seed uint64, kindByte, a, b, c uint8) Params {
	rng := sim.NewRNG(seed)
	frac := func(x uint8, lo, hi float64) float64 {
		return lo + (hi-lo)*float64(x)/255
	}
	kinds := core.AllPatterns()
	kind := kinds[int(kindByte)%len(kinds)]
	switch kind {
	case core.PatternDiurnal:
		p := Diurnal(frac(a, 0, 0.3), frac(b, 0, 0.6), int(c)*5, rng.Uint64())
		p.Sharpness = frac(c, 0.5, 5)
		p.WeekendFactor = frac(a, 0.1, 1)
		return p
	case core.PatternStable:
		return Stable(frac(a, 0, 0.9), rng.Uint64())
	case core.PatternIrregular:
		p := Irregular(frac(a, 0, 0.2), rng.Uint64())
		p.SpikeProb = frac(b, 0, 0.3)
		p.SpikeLevel = frac(c, 0, 0.8)
		return p
	case core.PatternHourlyPeak:
		p := HourlyPeak(frac(a, 0, 0.2), frac(b, 0, 0.4), int(c)*5, rng.Uint64())
		p.PeakAmp = frac(c, 0, 0.6)
		return p
	case core.PatternBursty:
		p := Bursty(frac(a, 0, 0.05), frac(c, 0, 1), 1+int(b)%16, int(c)*5, frac(a, 0, 1), rng.Uint64())
		p.BurstProb = frac(b, 0, 1)
		p.Sharpness = frac(c, 0.5, 5)
		return p
	case core.PatternSteady:
		return Steady(frac(a, 0, 0.9), rng.Uint64())
	default:
		p := Spiky(frac(a, 0, 1), 1+int(b)%16, rng.Uint64())
		p.SpikeProb = frac(c, 0, 0.5)
		return p
	}
}

// TestRandomParamsStayBounded: every valid parameterization yields values
// in [0, 1] at every probed step and passes Validate.
func TestRandomParamsStayBounded(t *testing.T) {
	check := func(seed uint64, kindByte, a, b, c uint8, rawStep uint16) bool {
		p := randomValidParams(seed, kindByte, a, b, c)
		if err := p.Validate(); err != nil {
			return false
		}
		step := int(rawStep) % grid.N
		v := p.At(grid, step)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestSeriesMeanConsistencyProperty: MeanOver equals the mean of Series.
func TestSeriesMeanConsistencyProperty(t *testing.T) {
	check := func(seed uint64, kindByte, a, b, c uint8, rawFrom, rawLen uint16) bool {
		p := randomValidParams(seed, kindByte, a, b, c)
		from := int(rawFrom) % grid.N
		length := 1 + int(rawLen)%500
		to := from + length
		series := p.Series(grid, from, to)
		if len(series) == 0 {
			return true
		}
		sum := 0.0
		for _, v := range series {
			sum += v
		}
		want := sum / float64(len(series))
		got := p.MeanOver(grid, from, to)
		diff := want - got
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestUTCAnchoredAlignmentProperty: two UTC-anchored clones in different
// time zones produce identical deterministic components.
func TestUTCAnchoredAlignmentProperty(t *testing.T) {
	check := func(seed uint64, a, b uint8, rawStep uint16) bool {
		p1 := Diurnal(float64(a)/512, float64(b)/512, 13*60, 1)
		p1.NoiseAmp = 0
		p1.UTCAnchored = true
		p1.TZOffsetMin = -480
		p2 := p1
		p2.TZOffsetMin = 60
		step := int(rawStep) % grid.N
		return p1.At(grid, step) == p2.At(grid, step)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLocalAnchoredShiftProperty: local-anchored clones in different zones
// are time-shifted copies of each other (within the same weekday class).
func TestLocalAnchoredShiftProperty(t *testing.T) {
	p1 := Diurnal(0.1, 0.4, 13*60, 1)
	p1.NoiseAmp = 0
	p1.WeekendFactor = 1 // remove the weekday/weekend confound
	p1.TZOffsetMin = 0
	p2 := p1
	p2.TZOffsetMin = -120 // two hours behind
	shift := 120 / grid.StepMinutes()
	for step := 0; step < 2*sim.StepsPerDay; step++ {
		// p2's local time at step+shift equals p1's local time at step.
		a := p1.At(grid, step)
		b := p2.At(grid, step+shift)
		if diff := a - b; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("shifted series diverge at step %d: %v vs %v", step, a, b)
		}
	}
}
