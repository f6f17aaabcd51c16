package classify_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"cloudlens/internal/classify"
	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/sim"
	"cloudlens/internal/sketch"
	"cloudlens/internal/usage"
)

// lagGrids are three days on the one-, five- and fifteen-minute grids.
func lagGrids() []sim.Grid {
	var gs []sim.Grid
	for _, step := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute} {
		g := sim.WeekGrid()
		g.Step = step
		g.N = 3 * g.StepsPerDay()
		gs = append(gs, g)
	}
	return gs
}

// everyPattern is one generated series model per pattern of both families.
func everyPattern(g sim.Grid) []usage.Params {
	block := max(g.StepsPerHour()/6, 1)
	return []usage.Params{
		usage.Stable(0.5, 1),
		usage.Diurnal(0.3, 0.25, 14*60, 2),
		usage.HourlyPeak(0.2, 0.4, 10*60, 3),
		usage.Irregular(0.4, 4),
		usage.Steady(0.55, 5),
		usage.Bursty(0.03, 0.5, block, 12*60, 0.35, 6),
		usage.Spiky(0.8, block, 7),
	}
}

// TestDecideReadsOnlyItsLags holds each family's Lags to what its Decide
// reads: on every grid and every pattern, Decide over a sketch tracking
// Lags() decides as it does over one tracking the set both families'
// sketches once shared (the CPU family's), at every fold of the series.
func TestDecideReadsOnlyItsLags(t *testing.T) {
	for _, g := range lagGrids() {
		union := classify.NewRules(core.FamilyCPU, g.StepsPerHour()).Lags()
		for _, f := range []core.Family{core.FamilyCPU, core.FamilyServerless} {
			r := classify.NewRules(f, g.StepsPerHour())
			lags := r.Lags()
			for _, l := range lags {
				if !slices.Contains(union, l) {
					t.Fatalf("%s on %v: lag %d is outside the shared set %v", f, g.Step, l, union)
				}
			}
			for _, p := range everyPattern(g) {
				t.Run(fmt.Sprintf("%s/%v/%s", f, g.Step, p.Pattern), func(t *testing.T) {
					own, wide := sketch.NewAutoCorr(lags...), sketch.NewAutoCorr(union...)
					var e classify.Evidence
					for i, x := range p.Series(g, 0, g.N) {
						own.Add(x)
						wide.Add(x)
						r.Add(&e, i, x)
						if (i+1)%g.StepsPerHour() != 0 {
							continue
						}
						if a, b := r.Decide(&e, own), r.Decide(&e, wide); a != b {
							t.Fatalf("after %d samples: %s over lags %v, %s over %v", i+1, a, lags, b, union)
						}
						for _, l := range lags {
							if a, b := own.At(l), wide.At(l); a != b {
								t.Fatalf("after %d samples: lag %d reads %v alone, %v among %v", i+1, l, a, b, union)
							}
						}
					}
				})
			}
		}
	}
}

// TestQualificationFitsTheRing pins what the streaming qualification flush
// relies on: a VM qualifies after kb.MinProfileStepsFor samples, and its
// sketch's ring (as long as the largest lag) must still hold all of them
// then. The serverless ring is exactly one day, so it sits at equality.
func TestQualificationFitsTheRing(t *testing.T) {
	for _, g := range lagGrids() {
		for _, f := range []core.Family{core.FamilyCPU, core.FamilyServerless} {
			lags := classify.NewRules(f, g.StepsPerHour()).Lags()
			if need, ring := kb.MinProfileStepsFor(g), slices.Max(lags); need > ring {
				t.Errorf("%s on %v: qualification needs %d samples, the ring holds %d", f, g.Step, need, ring)
			}
		}
	}
}
