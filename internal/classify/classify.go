// Package classify assigns a week-long CPU-utilization series to one of the
// paper's four pattern types (Section IV-A): diurnal, stable, irregular, or
// hourly-peak. The decision procedure follows the paper's descriptions:
//
//   - stable is "extracted by restricting the standard deviation";
//   - diurnal and hourly-peak are "detected using the approach discussed in
//     [Vlachos et al.]", i.e. validated periodicities at ~24h and ~1h with,
//     for hourly-peak, peaks aligned to the hour/half-hour marks;
//   - irregular is "the remaining pattern".
package classify

import (
	"cloudlens/internal/core"
	"cloudlens/internal/obs"
	"cloudlens/internal/periodic"
	"cloudlens/internal/stats"
)

// classifiedSeries counts one per series, by either family's classifier.
var classifiedSeries = obs.Default.Counter("cloudlens_classify_series_total",
	"Series handed to classify.Classify or classify.ClassifyInvocation.")

// The CPU taxonomy's fixed thresholds, calibrated for a 5-minute,
// one-week grid. They are constants, not options: a pattern label means
// one documented threshold set.
const (
	// stableStdDev is the standard-deviation ceiling for the stable class
	// (2.5 percentage points).
	stableStdDev = 0.025
	// periodTolerance is the relative tolerance when matching a detected
	// lag against the daily or hourly target.
	periodTolerance = 0.15
	// The hourly line of a weak meeting-peak pattern can sit well below
	// the diurnal envelope's spectral peak, so the classifier probes
	// deeper into the periodogram than the detector's defaults; the ACF
	// validation and the hour-alignment test filter the extra hints.
	periodicMinPower      = 0.03
	periodicMaxCandidates = 12
)

// Options describes the series the classifier reads; the zero value
// selects the 5-minute grid.
type Options struct {
	// StepsPerHour describes the series resolution (default 12, i.e.
	// 5-minute samples).
	StepsPerHour int
}

// Result carries the assigned pattern and the evidence behind it.
type Result struct {
	Pattern core.Pattern `json:"pattern"`
	// StdDev is the series' standard deviation (the stable test).
	StdDev float64 `json:"stdDev"`
	// DailyACF and HourlyACF are the validated autocorrelations at the
	// daily and hourly lags, 0 when not detected.
	DailyACF  float64 `json:"dailyACF"`
	HourlyACF float64 `json:"hourlyACF"`
	// HourAligned reports whether within-hour utilization concentrates
	// at the start of the hour/half-hour (the hourly-peak signature).
	HourAligned bool `json:"hourAligned"`
}

// Classify assigns series to a pattern. The series is a CPU-utilization
// fraction sampled uniformly; it should cover at least two days for the
// daily test to be meaningful.
func Classify(series []float64, opts Options) Result {
	return NewRules(core.FamilyCPU, opts.StepsPerHour).classifyCPU(series)
}

// classifyCPU is Classify on the rules' grid. The stable and periodicity
// tests read the whole series (stats.StdDev, periodic.Detect); the
// hour-alignment test folds it through the rules' Evidence.
func (r Rules) classifyCPU(series []float64) Result {
	classifiedSeries.Inc()
	res := Result{Pattern: core.PatternIrregular}
	if len(series) == 0 {
		res.Pattern = core.PatternUnknown
		return res
	}
	res.StdDev = stats.StdDev(series)
	if res.StdDev < stableStdDev {
		res.Pattern = core.PatternStable
		return res
	}

	periods := periodic.Detect(series, periodic.Options{
		MinPower:      periodicMinPower,
		MaxCandidates: periodicMaxCandidates,
	})
	for _, p := range periods {
		// Services peaking at both the hour and half-hour marks have a
		// fundamental period of half an hour; accept either lag.
		if res.HourlyACF == 0 &&
			(within(p.Lag, r.stepsPerHour, periodTolerance) ||
				(r.halfHour >= 2 && within(p.Lag, r.halfHour, periodTolerance))) {
			res.HourlyACF = p.ACF
		}
		if res.DailyACF == 0 && within(p.Lag, r.day(), periodTolerance) {
			res.DailyACF = p.ACF
		}
	}
	var e Evidence
	for i, v := range series {
		r.Add(&e, i, v)
	}
	res.HourAligned = r.hourAligned(&e)
	res.Pattern = res.Decide()
	return res
}

// Decide maps the evidence fields to a pattern, applying the paper's
// decision order: the standard-deviation ceiling selects stable first, a
// validated hourly period with hour-aligned peaks selects hourly-peak, a
// validated daily period selects diurnal, and irregular is the remainder.
// Classify and the streaming path (Rules.Decide) both reach their verdict
// through it, so the two share one set of thresholds.
func (r Result) Decide() core.Pattern {
	switch {
	case r.StdDev < stableStdDev:
		return core.PatternStable
	case r.HourlyACF > 0 && r.HourAligned:
		return core.PatternHourlyPeak
	case r.DailyACF > 0:
		return core.PatternDiurnal
	default:
		return core.PatternIrregular
	}
}

// within reports whether lag is within tol (relative) of target.
func within(lag, target int, tol float64) bool {
	d := float64(lag - target)
	if d < 0 {
		d = -d
	}
	return d <= tol*float64(target)
}

// alignedMargin is how far the mean utilization of the hour-aligned peak
// slots must exceed the mean of the remaining slots for the hour-alignment
// test to pass. The peak window is the first fifth of the hour and the
// corresponding window right after the half-hour mark: meetings start at
// the hour and half-hour marks, so join spikes concentrate there.
const alignedMargin = 0.02
