package usage

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/sim"
)

var grid = sim.WeekGrid()

func TestPresetsValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Params
	}{
		{name: "diurnal", p: Diurnal(0.1, 0.4, 13*60, 1)},
		{name: "stable", p: Stable(0.2, 2)},
		{name: "irregular", p: Irregular(0.05, 3)},
		{name: "hourly-peak", p: HourlyPeak(0.05, 0.3, 13*60, 4)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name string
		p    Params
	}{
		{name: "zero value", p: Params{}},
		{name: "negative base", p: Params{Pattern: core.PatternStable, Base: -0.1}},
		{name: "base above one", p: Params{Pattern: core.PatternStable, Base: 1.2}},
		{name: "excess amplitude", p: Params{Pattern: core.PatternDiurnal, Base: 0.9, Amp: 1}},
		{name: "irregular without block", p: Params{Pattern: core.PatternIrregular, Base: 0.1}},
		{name: "hourly without width", p: Params{Pattern: core.PatternHourlyPeak, Base: 0.1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

// TestAtBoundedProperty: every model's output stays in [0, 1] at every step.
func TestAtBoundedProperty(t *testing.T) {
	presets := []Params{
		Diurnal(0.1, 0.45, 13*60, 11),
		Stable(0.3, 12),
		Irregular(0.06, 13),
		HourlyPeak(0.06, 0.3, 13*60, 14),
	}
	check := func(rawStep uint16, which uint8) bool {
		p := presets[int(which)%len(presets)]
		step := int(rawStep) % grid.N
		v := p.At(grid, step)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAtDeterministic(t *testing.T) {
	p := Diurnal(0.1, 0.4, 13*60, 99)
	for step := 0; step < 500; step++ {
		if p.At(grid, step) != p.At(grid, step) {
			t.Fatal("At is not deterministic")
		}
	}
}

func TestDiurnalPeaksAtPeakMinute(t *testing.T) {
	p := Diurnal(0.1, 0.4, 13*60, 5)
	p.NoiseAmp = 0 // isolate the deterministic shape
	// Tuesday (weekday).
	day := sim.StepsPerDay
	peakStep := day + (13*60)/5
	nightStep := day + (1*60)/5
	peak := p.At(grid, peakStep)
	night := p.At(grid, nightStep)
	if peak <= night+0.2 {
		t.Fatalf("peak %v not clearly above night %v", peak, night)
	}
	if math.Abs(peak-(0.1+0.4)) > 0.02 {
		t.Fatalf("peak %v, want ~0.5", peak)
	}
}

func TestDiurnalWeekendDamping(t *testing.T) {
	p := Diurnal(0.1, 0.45, 13*60, 6)
	p.NoiseAmp = 0
	weekdayPeak := p.At(grid, 1*sim.StepsPerDay+13*12) // Tuesday 13:00
	weekendPeak := p.At(grid, 5*sim.StepsPerDay+13*12) // Saturday 13:00
	// WeekendFactor is 1/3: Figure 5(a)'s ~60% weekday vs ~20% weekend.
	wantRatio := (weekendPeak - 0.1) / (weekdayPeak - 0.1)
	if math.Abs(wantRatio-1.0/3.0) > 0.05 {
		t.Fatalf("weekend/weekday amplitude ratio %v, want ~1/3", wantRatio)
	}
}

func TestDiurnalTimeZoneAnchoring(t *testing.T) {
	base := Diurnal(0.1, 0.4, 13*60, 7)
	base.NoiseAmp = 0

	local := base
	local.TZOffsetMin = -480 // UTC-8
	// The local 13:00 peak occurs at 21:00 UTC.
	utcStep := 1*sim.StepsPerDay + 21*12
	if v := local.At(grid, utcStep); math.Abs(v-0.5) > 0.02 {
		t.Fatalf("local-anchored peak at 21:00 UTC = %v, want ~0.5", v)
	}

	anchored := base
	anchored.TZOffsetMin = -480
	anchored.UTCAnchored = true
	// UTC-anchored ignores the offset: peak at 13:00 UTC.
	if v := anchored.At(grid, 1*sim.StepsPerDay+13*12); math.Abs(v-0.5) > 0.02 {
		t.Fatalf("UTC-anchored peak at 13:00 UTC = %v, want ~0.5", v)
	}
}

func TestStableIsFlat(t *testing.T) {
	p := Stable(0.25, 8)
	series := p.Series(grid, 0, grid.N)
	var minV, maxV = 1.0, 0.0
	for _, v := range series {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV-minV > 3*p.NoiseAmp {
		t.Fatalf("stable series range %v too wide", maxV-minV)
	}
}

func TestIrregularSpikes(t *testing.T) {
	p := Irregular(0.05, 9)
	series := p.Series(grid, 0, grid.N)
	spikes := 0
	for _, v := range series {
		if v > 0.4 {
			spikes++
		}
	}
	if spikes == 0 {
		t.Fatal("irregular pattern produced no spikes")
	}
	frac := float64(spikes) / float64(len(series))
	if frac > 0.2 {
		t.Fatalf("irregular pattern spikes %.0f%% of the time; should be occasional", 100*frac)
	}
	// Spikes persist for whole blocks.
	if p.SpikeBlockSteps < 2 {
		t.Skip("single-step blocks")
	}
}

func TestHourlyPeakAlignment(t *testing.T) {
	p := HourlyPeak(0.05, 0.3, 13*60, 10)
	p.NoiseAmp = 0
	// Tuesday 13:02 (within the on-the-hour peak) vs 13:17 (outside).
	inPeak := p.At(grid, sim.StepsPerDay+13*12)
	offPeak := p.At(grid, sim.StepsPerDay+13*12+3)
	if inPeak <= offPeak+0.1 {
		t.Fatalf("hourly peak %v not above envelope %v", inPeak, offPeak)
	}
	// Half-hour peak present when enabled.
	halfPeak := p.At(grid, sim.StepsPerDay+13*12+6)
	if halfPeak <= offPeak+0.1 {
		t.Fatalf("half-hour peak %v not above envelope %v", halfPeak, offPeak)
	}
}

// TestSeriesMatchesAt: SeriesInto is At, step by step and bit for bit — for
// every pattern of both families, on sub-minute to coarse grids, under every
// anchoring, over windows that stay inside a day, cross the weekend boundary
// and cover the whole grid, into a buffer that still holds another series.
func TestSeriesMatchesAt(t *testing.T) {
	hourlyNoHalf := HourlyPeak(0.06, 0.3, 13*60, 24)
	hourlyNoHalf.HalfHourPeaks = false
	models := []struct {
		name string
		p    Params
	}{
		{"diurnal", Diurnal(0.1, 0.3, 12*60, 21)},
		{"stable", Stable(0.2, 22)},
		{"irregular", Irregular(0.05, 23)},
		{"hourly-peak", hourlyNoHalf},
		{"hourly-peak/half-hours", HourlyPeak(0.06, 0.3, 13*60, 25)},
		{"bursty", Bursty(0.02, 0.7, 5, 14*60, 0.35, 26)},
		{"steady", Steady(0.4, 27)},
		{"spiky", Spiky(0.9, 3, 28)},
	}
	type window struct {
		name     string
		from, to int
	}
	var buf []float64
	check := func(g sim.Grid, windows []window) {
		t.Helper()
		for _, m := range models {
			for _, tz := range []int{-720, -300, 0, 330, 840} {
				for _, anchored := range []bool{false, true} {
					for _, sharp := range []float64{0, 1, 3.5} {
						p := m.p
						p.TZOffsetMin, p.UTCAnchored, p.Sharpness = tz, anchored, sharp
						for _, w := range windows {
							// Whatever the last case left in buf is the dirt
							// this one must overwrite.
							buf = p.SeriesInto(buf, g, w.from, w.to)
							if len(buf) != w.to-w.from {
								t.Fatalf("%s step=%v: %s: %d samples, want %d", m.name, g.Step, w.name, len(buf), w.to-w.from)
							}
							for i, v := range buf {
								if at := p.At(g, w.from+i); v != at {
									t.Fatalf("%s step=%v tz=%d anchored=%v sharpness=%v: %s: series[%d] = %v, At(%d) = %v",
										m.name, g.Step, tz, anchored, sharp, w.name, i, v, w.from+i, at)
								}
							}
						}
					}
				}
			}
		}
	}
	for _, step := range []time.Duration{30 * time.Second, time.Minute, 5 * time.Minute, 15 * time.Minute} {
		g := sim.Grid{Start: grid.Start, Step: step, N: int(7 * 24 * time.Hour / step)}
		perDay := g.StepsPerDay()
		check(g, []window{
			{"inside a day", perDay / 3, perDay/3 + perDay/4},
			{"across the weekend boundary", 4*perDay + perDay/2, 5*perDay + perDay/2 + 7},
			{"whole grid", 0, g.N},
		})
	}
	// Steps of a day or more skip whole local days, so a wrap of the minute
	// of day no longer marks each new one.
	check(sim.Grid{Start: grid.Start, Step: 36 * time.Hour, N: 40}, []window{{"whole grid", 0, 40}})
}

func TestSeriesClipsRange(t *testing.T) {
	p := Stable(0.2, 22)
	if got := p.Series(grid, -50, 10); len(got) != 10 {
		t.Fatalf("negative from not clipped: %d", len(got))
	}
	if got := p.Series(grid, grid.N-5, grid.N+100); len(got) != 5 {
		t.Fatalf("overlong to not clipped: %d", len(got))
	}
	if got := p.Series(grid, 50, 50); got != nil {
		t.Fatalf("empty range produced %d samples", len(got))
	}
}

func TestMeanOver(t *testing.T) {
	p := Stable(0.3, 23)
	p.NoiseAmp = 0
	if got := p.MeanOver(grid, 0, 100); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("MeanOver = %v, want 0.3", got)
	}
	if got := p.MeanOver(grid, 10, 10); got != 0 {
		t.Fatalf("empty MeanOver = %v, want 0", got)
	}
}

func TestSeedsDecorrelateNoise(t *testing.T) {
	a := Stable(0.3, 1001)
	b := Stable(0.3, 1002)
	same := 0
	for step := 0; step < 1000; step++ {
		if a.At(grid, step) == b.At(grid, step) {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds agree on %d of 1000 samples", same)
	}
}
