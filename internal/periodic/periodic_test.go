package periodic

import (
	"math"
	"testing"

	"cloudlens/internal/sim"
)

// week builds a 2016-sample synthetic series via gen(step).
func week(gen func(i int) float64) []float64 {
	out := make([]float64, 2016)
	for i := range out {
		out[i] = gen(i)
	}
	return out
}

func TestDetectDailyPeriod(t *testing.T) {
	series := week(func(i int) float64 {
		return 0.3 + 0.2*math.Sin(2*math.Pi*float64(i)/288)
	})
	ps := Detect(series, Options{})
	if len(ps) == 0 {
		t.Fatal("no period detected in a pure daily sine")
	}
	p := ps[0]
	if p.Lag < 280 || p.Lag > 296 {
		t.Fatalf("detected lag %d, want ~288", p.Lag)
	}
	// The biased ACF estimate tops out near (n-lag)/n ≈ 0.857 at the
	// daily lag of a week-long series.
	if p.ACF < 0.8 {
		t.Fatalf("ACF %v too low for a pure sine", p.ACF)
	}
}

func TestDetectHourlyPeriod(t *testing.T) {
	// Sharp 10-minute peaks at the top of every hour (12 samples).
	series := week(func(i int) float64 {
		if i%12 < 2 {
			return 0.6
		}
		return 0.05
	})
	ps := Detect(series, Options{})
	if len(ps) == 0 {
		t.Fatal("no periods detected in hourly peaks")
	}
	found := false
	for _, p := range ps {
		if p.Lag >= 11 && p.Lag <= 13 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ~12-sample period among %v", ps)
	}
}

func TestDetectNoiseHasNoStrongPeriod(t *testing.T) {
	series := week(func(i int) float64 {
		return sim.Noise01(77, i)
	})
	ps := Detect(series, Options{})
	for _, p := range ps {
		if p.ACF > 0.5 {
			t.Fatalf("white noise produced a confident period: %+v", p)
		}
	}
}

func TestDetectConstantSeries(t *testing.T) {
	series := week(func(i int) float64 { return 0.4 })
	if ps := Detect(series, Options{}); len(ps) != 0 {
		t.Fatalf("constant series produced periods: %v", ps)
	}
}

func TestDetectShortSeries(t *testing.T) {
	if ps := Detect([]float64{1, 2, 3}, Options{}); ps != nil {
		t.Fatalf("short series produced periods: %v", ps)
	}
}

func TestDetectNoisyDaily(t *testing.T) {
	// A daily pattern buried under moderate noise must still surface.
	series := week(func(i int) float64 {
		return 0.3 + 0.2*math.Sin(2*math.Pi*float64(i)/288) + 0.08*sim.NoiseSigned(5, i)
	})
	ps := Detect(series, Options{})
	if len(ps) == 0 {
		t.Fatal("noisy daily pattern not detected")
	}
	p := ps[0]
	if p.Lag < 275 || p.Lag > 301 {
		t.Fatalf("lag %d too far from 288", p.Lag)
	}
}

func TestDominantPrefersStrongerACF(t *testing.T) {
	// Daily component much stronger than a weak hourly ripple.
	series := week(func(i int) float64 {
		v := 0.3 + 0.25*math.Sin(2*math.Pi*float64(i)/288)
		if i%12 == 0 {
			v += 0.02
		}
		return v
	})
	ps := Detect(series, Options{})
	if len(ps) == 0 {
		t.Fatal("no period detected")
	}
	p := ps[0]
	if p.Lag < 275 || p.Lag > 301 {
		t.Fatalf("dominant lag %d, want daily", p.Lag)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxCandidates != 8 || o.MinACF != 0.3 || o.MinPower != 0.1 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	custom := Options{MaxCandidates: 3, MinACF: 0.5, MinPower: 0.2}.withDefaults()
	if custom.MaxCandidates != 3 || custom.MinACF != 0.5 || custom.MinPower != 0.2 {
		t.Fatalf("custom options overridden: %+v", custom)
	}
}

func TestHillClimbFindsLocalMax(t *testing.T) {
	acf := []float64{1, 0.2, 0.3, 0.8, 0.5, 0.1}
	if got := hillClimb(acf, 4); got != 3 {
		t.Fatalf("hillClimb from 4 = %d, want 3", got)
	}
	if got := hillClimb(acf, 2); got != 3 {
		t.Fatalf("hillClimb from 2 = %d, want 3", got)
	}
	if got := hillClimb(acf, 99); got != -1 {
		t.Fatalf("hillClimb out of range = %d, want -1", got)
	}
}
