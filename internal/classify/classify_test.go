package classify

import (
	"fmt"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/sim"
	"cloudlens/internal/usage"
)

var grid = sim.WeekGrid()

// classifyParams materializes a week of the model and classifies it.
func classifyParams(p usage.Params) Result {
	return Classify(p.Series(grid, 0, grid.N), Options{})
}

func TestClassifyPresets(t *testing.T) {
	tests := []struct {
		name string
		make func(seed uint64) usage.Params
		want core.Pattern
	}{
		{
			name: "diurnal",
			make: func(s uint64) usage.Params { return usage.Diurnal(0.1, 0.35, 13*60, s) },
			want: core.PatternDiurnal,
		},
		{
			name: "stable",
			make: func(s uint64) usage.Params { return usage.Stable(0.22, s) },
			want: core.PatternStable,
		},
		{
			name: "irregular",
			make: func(s uint64) usage.Params { return usage.Irregular(0.05, s) },
			want: core.PatternIrregular,
		},
		{
			name: "hourly-peak",
			make: func(s uint64) usage.Params { return usage.HourlyPeak(0.06, 0.25, 13*60, s) },
			want: core.PatternHourlyPeak,
		},
	}
	for _, tt := range tests {
		for seed := uint64(1); seed <= 10; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tt.name, seed), func(t *testing.T) {
				got := classifyParams(tt.make(seed))
				if got.Pattern != tt.want {
					t.Fatalf("classified as %v (stddev=%.3f dailyACF=%.2f hourlyACF=%.2f aligned=%v), want %v",
						got.Pattern, got.StdDev, got.DailyACF, got.HourlyACF, got.HourAligned, tt.want)
				}
			})
		}
	}
}

func TestClassifyAccuracyOverMixedSeeds(t *testing.T) {
	// Aggregate accuracy across a spread of parameterizations must be
	// high; individual misclassifications are tolerated.
	rng := sim.NewRNG(7)
	correct, total := 0, 0
	for i := 0; i < 40; i++ {
		var p usage.Params
		switch i % 4 {
		case 0:
			p = usage.Diurnal(0.05+0.1*rng.Float64(), 0.15+0.3*rng.Float64(), 12*60+rng.Intn(180), rng.Uint64())
		case 1:
			p = usage.Stable(0.05+0.3*rng.Float64(), rng.Uint64())
		case 2:
			p = usage.Irregular(0.03+0.05*rng.Float64(), rng.Uint64())
		case 3:
			p = usage.HourlyPeak(0.04+0.05*rng.Float64(), 0.15+0.2*rng.Float64(), 12*60+rng.Intn(180), rng.Uint64())
		}
		if classifyParams(p).Pattern == p.Pattern {
			correct++
		}
		total++
	}
	acc := float64(correct) / float64(total)
	if acc < 0.85 {
		t.Fatalf("classifier accuracy %.2f over mixed parameters, want >= 0.85", acc)
	}
}

func TestClassifyEmptySeries(t *testing.T) {
	if got := Classify(nil, Options{}); got.Pattern != core.PatternUnknown {
		t.Fatalf("empty series classified as %v", got.Pattern)
	}
}

func TestClassifyConstantIsStable(t *testing.T) {
	series := make([]float64, 2016)
	for i := range series {
		series[i] = 0.4
	}
	if got := Classify(series, Options{}); got.Pattern != core.PatternStable {
		t.Fatalf("constant series classified as %v", got.Pattern)
	}
}

// TestClassifyRespectsStableThreshold pins the stable ceiling at
// stableStdDev: a square wave whose standard deviation sits just under it
// is stable, one just over it is not.
func TestClassifyRespectsStableThreshold(t *testing.T) {
	wave := func(amp float64) []float64 {
		series := make([]float64, grid.N)
		for i := range series {
			series[i] = 0.4 + amp
			if i%2 == 1 {
				series[i] = 0.4 - amp
			}
		}
		return series
	}
	under := Classify(wave(0.0249), Options{})
	if under.StdDev >= 0.025 || under.Pattern != core.PatternStable {
		t.Fatalf("std %.5f classified %v, want stable", under.StdDev, under.Pattern)
	}
	over := Classify(wave(0.0251), Options{})
	if over.StdDev <= 0.025 || over.Pattern == core.PatternStable {
		t.Fatalf("std %.5f classified %v, want not stable", over.StdDev, over.Pattern)
	}
}

func TestHourAligned(t *testing.T) {
	// Peaks in the first two slots of each hour.
	aligned := make([]float64, 2016)
	for i := range aligned {
		if i%12 < 2 {
			aligned[i] = 0.5
		} else {
			aligned[i] = 0.1
		}
	}
	if !hourAligned(aligned, 12) {
		t.Fatal("aligned series not recognized")
	}
	// Peaks mid-hour must NOT count as aligned.
	shifted := make([]float64, 2016)
	for i := range shifted {
		if i%12 == 4 || i%12 == 5 {
			shifted[i] = 0.5
		} else {
			shifted[i] = 0.1
		}
	}
	if hourAligned(shifted, 12) {
		t.Fatal("mid-hour peaks recognized as hour-aligned")
	}
}

func TestWithin(t *testing.T) {
	if !within(288, 288, 0.15) || !within(250, 288, 0.15) || !within(330, 288, 0.15) {
		t.Fatal("within rejects values inside tolerance")
	}
	if within(200, 288, 0.15) || within(400, 288, 0.15) {
		t.Fatal("within accepts values outside tolerance")
	}
}

// TestOptionsDefaults pins the StepsPerHour default and the CPU
// taxonomy's constants at the values DESIGN.md documents.
func TestOptionsDefaults(t *testing.T) {
	if o := (Options{}).withDefaults(); o.StepsPerHour != 12 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if o := (Options{StepsPerHour: 60}).withDefaults(); o.StepsPerHour != 60 {
		t.Fatalf("explicit StepsPerHour overwritten: %+v", o)
	}
	if stableStdDev != 0.025 || periodTolerance != 0.15 ||
		periodicMinPower != 0.03 || periodicMaxCandidates != 12 {
		t.Fatalf("thresholds moved: std %v, tolerance %v, min power %v, candidates %v",
			stableStdDev, periodTolerance, periodicMinPower, periodicMaxCandidates)
	}
}
