package classify

import (
	"fmt"
	"slices"

	"cloudlens/internal/core"
	"cloudlens/internal/periodic"
	"cloudlens/internal/sketch"
)

// Evidence is what a series' pattern rests on beyond its autocorrelation
// sketch (mean, spread and the ACF at fixed lags): six flat fields a
// family's Rules fold one sample at a time, in the order the streaming
// checkpoint lays them out. Each family writes only its own fields and
// leaves the others zero.
type Evidence struct {
	// PeakSum and RestSum are the CPU family's utilization sums over the
	// hour-aligned peak slots and over the rest of the hour; PeakN and
	// RestN count their samples.
	PeakSum, RestSum float64
	PeakN, RestN     int
	// PeakMax and IdleN are the serverless family's running sample peak
	// and its count of idle samples (below idleEps).
	PeakMax float64
	IdleN   int
}

// Rules are one workload family's evidence and decision rules on one grid:
// the autocorrelation lags its decision reads, how a sample folds into
// Evidence, how Evidence and the sketch map to a pattern, and what
// evidence a replay can produce. The batch classifiers fold a materialized
// series through the same rules the streaming ingestor applies sample by
// sample, so the two share one definition of each family's evidence. A
// Rules value holds no per-series state and is safe to share.
type Rules struct {
	family       core.Family
	stepsPerHour int
	// The hour-aligned peak window: within-hour slots [0, peakSlots) and
	// [halfHour, halfHour+peakSlots).
	peakSlots, halfHour int
}

// NewRules returns the family's rules on a grid of stepsPerHour samples an
// hour; 0 selects the 5-minute grid.
func NewRules(f core.Family, stepsPerHour int) Rules {
	if stepsPerHour == 0 {
		stepsPerHour = 12
	}
	return Rules{
		family:       f,
		stepsPerHour: stepsPerHour,
		peakSlots:    max(stepsPerHour/5, 1),
		halfHour:     stepsPerHour / 2,
	}
}

// day is the daily lag in samples.
func (r Rules) day() int { return 24 * r.stepsPerHour }

// Lags returns, in a new slice, the lags a sketch handed to Decide must
// track: the hour, the half hour and the day, each with the hill-test lags
// half a period either side. Both families' sketches track the same set;
// the serverless rules read only the daily lag.
func (r Rules) Lags() []int {
	var lags []int
	for _, target := range []int{r.stepsPerHour, r.halfHour, r.day()} {
		if target < 2 {
			continue
		}
		for _, lag := range []int{target, target - target/2, target + target/2} {
			if lag >= 1 && !slices.Contains(lags, lag) {
				lags = append(lags, lag)
			}
		}
	}
	return lags
}

// Add folds the sample x into e. offset is the sample's distance in grid
// steps from the series' first sample, not its count of samples before it:
// the two differ after a skipped gap, and the hour-aligned window follows
// the step.
func (r Rules) Add(e *Evidence, offset int, x float64) {
	if r.family == core.FamilyServerless {
		if x > e.PeakMax {
			e.PeakMax = x
		}
		if x < idleEps {
			e.IdleN++
		}
		return
	}
	if slot := offset % r.stepsPerHour; slot < r.peakSlots || (slot >= r.halfHour && slot < r.halfHour+r.peakSlots) {
		e.PeakSum += x
		e.PeakN++
	} else {
		e.RestSum += x
		e.RestN++
	}
}

// Decide maps the evidence e and the autocorrelation sketch ac of the same
// series to a pattern. ac must track the lags Decide reads (see Lags).
//
// The CPU rules validate the daily and hourly periods at their fixed lags,
// the incremental counterpart of Classify's periodic.Detect; the
// serverless rules read the raw daily autocorrelation, exactly as
// ClassifyInvocation does.
func (r Rules) Decide(e *Evidence, ac *sketch.AutoCorr) core.Pattern {
	if r.family == core.FamilyServerless {
		return r.invocationResult(e, ac).Decide()
	}
	res := Result{
		StdDev:      ac.StdDev(),
		DailyACF:    validatedACF(ac, r.day()),
		HourlyACF:   validatedACF(ac, r.stepsPerHour),
		HourAligned: r.hourAligned(e),
	}
	if r.halfHour >= 2 {
		res.HourlyACF = max(res.HourlyACF, validatedACF(ac, r.halfHour))
	}
	return res.Decide()
}

// Classify assigns a materialized series to one of the family's patterns.
func (r Rules) Classify(series []float64) core.Pattern {
	if r.family == core.FamilyServerless {
		return r.classifyInvocation(series).Pattern
	}
	return r.classifyCPU(series).Pattern
}

// Check reports evidence that Add cannot have produced from n samples in
// [0, 1]: counts outside [0, n], sums outside [0, their count] (which also
// rejects NaN and infinities), or the other family's fields set.
func (r Rules) Check(e *Evidence, n int) error {
	if r.family == core.FamilyServerless {
		if e.PeakSum != 0 || e.RestSum != 0 || e.PeakN != 0 || e.RestN != 0 {
			return fmt.Errorf("serverless evidence carries hour-alignment sums %v/%v over %d/%d samples", e.PeakSum, e.RestSum, e.PeakN, e.RestN)
		}
		if e.IdleN < 0 || e.IdleN > n {
			return fmt.Errorf("evidence counts %d idle samples of %d", e.IdleN, n)
		}
		if !(e.PeakMax >= 0 && e.PeakMax <= 1) {
			return fmt.Errorf("evidence peak %v outside [0, 1]", e.PeakMax)
		}
		return nil
	}
	if e.PeakMax != 0 || e.IdleN != 0 {
		return fmt.Errorf("CPU evidence carries invocation peak %v and %d idle samples", e.PeakMax, e.IdleN)
	}
	if e.PeakN < 0 || e.RestN < 0 || e.PeakN+e.RestN != n {
		return fmt.Errorf("evidence splits %d samples into %d peak and %d rest", n, e.PeakN, e.RestN)
	}
	if !(e.PeakSum >= 0 && e.PeakSum <= float64(e.PeakN)) || !(e.RestSum >= 0 && e.RestSum <= float64(e.RestN)) {
		return fmt.Errorf("evidence sums %v over %d peak and %v over %d rest samples", e.PeakSum, e.PeakN, e.RestSum, e.RestN)
	}
	return nil
}

// hourAligned checks the hourly-peak signature: the mean utilization of the
// hour-aligned peak slots exceeds the mean of the rest of the hour by a
// clear margin. Below four steps an hour the window leaves no rest of the
// hour to compare against, so the test declines.
func (r Rules) hourAligned(e *Evidence) bool {
	if r.stepsPerHour < 4 || e.PeakN == 0 || e.RestN == 0 {
		return false
	}
	return e.PeakSum/float64(e.PeakN) > e.RestSum/float64(e.RestN)+alignedMargin
}

// validatedACF applies the AUTOPERIOD acceptance rules at a fixed target
// lag: the period must repeat at least twice in the observed span, clear
// periodic.DefaultMinACF, and sit on an ACF hill (its value exceeds the ACF
// half a period away on the sides that lie inside the valid lag range).
func validatedACF(ac *sketch.AutoCorr, lag int) float64 {
	n := ac.N()
	if lag < 2 || n < 2*lag {
		return 0
	}
	v := ac.At(lag)
	if v < periodic.DefaultMinACF {
		return 0
	}
	half := lag / 2
	if half >= 1 {
		if ac.At(lag-half) >= v {
			return 0
		}
		if right := lag + half; right <= n/2 && ac.At(right) >= v {
			return 0
		}
	}
	return v
}
