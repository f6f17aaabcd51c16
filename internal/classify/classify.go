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

func (o Options) withDefaults() Options {
	if o.StepsPerHour == 0 {
		o.StepsPerHour = 12
	}
	return o
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
	classifiedSeries.Inc()
	opts = opts.withDefaults()
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

	hourLag := opts.StepsPerHour
	halfHourLag := opts.StepsPerHour / 2
	dayLag := 24 * opts.StepsPerHour
	periods := periodic.Detect(series, periodic.Options{
		MinPower:      periodicMinPower,
		MaxCandidates: periodicMaxCandidates,
	})
	for _, p := range periods {
		// Services peaking at both the hour and half-hour marks have a
		// fundamental period of half an hour; accept either lag.
		if res.HourlyACF == 0 &&
			(within(p.Lag, hourLag, periodTolerance) ||
				(halfHourLag >= 2 && within(p.Lag, halfHourLag, periodTolerance))) {
			res.HourlyACF = p.ACF
		}
		if res.DailyACF == 0 && within(p.Lag, dayLag, periodTolerance) {
			res.DailyACF = p.ACF
		}
	}
	res.HourAligned = hourAligned(series, opts.StepsPerHour)
	res.Pattern = res.Decide()
	return res
}

// Decide maps the evidence fields to a pattern, applying the paper's
// decision order: the standard-deviation ceiling selects stable first, a
// validated hourly period with hour-aligned peaks selects hourly-peak, a
// validated daily period selects diurnal, and irregular is the remainder.
// It exists separately from Classify so the streaming pipeline, which
// accumulates the same evidence incrementally instead of from a
// materialized series, shares one set of thresholds with the batch path.
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

// AlignedMargin is how far the mean utilization of the hour-aligned peak
// slots must exceed the mean of the remaining slots for the hour-alignment
// test to pass.
const AlignedMargin = 0.02

// AlignedSlot reports whether a within-hour slot index (sample index modulo
// stepsPerHour) falls in the hour-aligned peak window: the first fifth of
// the hour and the corresponding window right after the half-hour mark.
// Meetings start at the hour and half-hour marks, so join spikes concentrate
// there. The streaming classifier uses this to bucket samples as they
// arrive instead of scanning a materialized series.
func AlignedSlot(slot, stepsPerHour int) bool {
	peakSlots := stepsPerHour / 5
	if peakSlots < 1 {
		peakSlots = 1
	}
	half := stepsPerHour / 2
	return slot < peakSlots || (slot >= half && slot < half+peakSlots)
}

// hourAligned checks the hourly-peak signature: the average utilization in
// the hour-aligned peak slots exceeds the average elsewhere by a clear
// margin.
func hourAligned(series []float64, stepsPerHour int) bool {
	if stepsPerHour < 4 {
		return false
	}
	var peakSum, restSum float64
	var peakN, restN int
	for i, v := range series {
		if AlignedSlot(i%stepsPerHour, stepsPerHour) {
			peakSum += v
			peakN++
		} else {
			restSum += v
			restN++
		}
	}
	if peakN == 0 || restN == 0 {
		return false
	}
	peakMean := peakSum / float64(peakN)
	restMean := restSum / float64(restN)
	return peakMean > restMean+AlignedMargin
}
