// Invocation-rate classification for the serverless workload family. The
// taxonomy mirrors the statistical signatures the web-application and FaaS
// characterization literature reports for request-driven workloads:
//
//   - steady: a near-constant call rate (low coefficient of variation) —
//     hot functions kept warm by continuous traffic;
//   - spiky: idle almost always with rare, very tall spikes (high
//     peak-to-mean burstiness and a dominant idle share) — the cold-start
//     tail of the function popularity distribution;
//   - diurnal: a strong daily autocorrelation with little idle time —
//     user-facing functions following the working-hours cycle;
//   - bursty: the remainder — clustered bursts over a quiet floor,
//     diurnally modulated or not.
//
// Like the CPU taxonomy, the evidence struct and the Decide method are
// shared between the batch path (which scans a materialized series) and
// the streaming path (which accumulates the same evidence incrementally),
// so both implementations apply one set of thresholds.
package classify

import (
	"cloudlens/internal/core"
	"cloudlens/internal/sketch"
)

// InvocationOptions tunes the invocation-rate classifier; the zero value
// selects defaults calibrated for the serverless generator's presets. All
// grid dependence enters through StepsPerHour — nothing in this file
// assumes the five-minute grid.
type InvocationOptions struct {
	// StepsPerHour describes the series resolution (default 12). The
	// daily-autocorrelation lag is 24*StepsPerHour.
	StepsPerHour int
	// SteadyCV is the coefficient-of-variation ceiling for the steady
	// class (default 0.3).
	SteadyCV float64
	// IdleEps is the rate below which a sample counts as idle
	// (default 0.05).
	IdleEps float64
	// SpikyIdleShare is the idle-share floor for the spiky class
	// (default 0.7).
	SpikyIdleShare float64
	// SpikyBurstiness is the peak-to-mean floor for the spiky class
	// (default 6).
	SpikyBurstiness float64
	// DiurnalMinACF is the daily-autocorrelation floor for the diurnal
	// class (default 0.3).
	DiurnalMinACF float64
	// DiurnalMaxIdle is the idle-share ceiling for the diurnal class: a
	// diurnally modulated burst train still spends much of its time at
	// the idle floor, a genuinely diurnal rate almost never does
	// (default 0.15).
	DiurnalMaxIdle float64
}

// WithDefaults returns o with zero fields replaced by the documented
// defaults. The streaming ingestor needs the resolved thresholds (IdleEps)
// while accumulating evidence, not only at Decide time.
func (o InvocationOptions) WithDefaults() InvocationOptions { return o.withDefaults() }

func (o InvocationOptions) withDefaults() InvocationOptions {
	if o.StepsPerHour == 0 {
		o.StepsPerHour = 12
	}
	if o.SteadyCV == 0 {
		o.SteadyCV = 0.3
	}
	if o.IdleEps == 0 {
		o.IdleEps = 0.05
	}
	if o.SpikyIdleShare == 0 {
		o.SpikyIdleShare = 0.7
	}
	if o.SpikyBurstiness == 0 {
		o.SpikyBurstiness = 6
	}
	if o.DiurnalMinACF == 0 {
		o.DiurnalMinACF = 0.3
	}
	if o.DiurnalMaxIdle == 0 {
		o.DiurnalMaxIdle = 0.15
	}
	return o
}

// InvocationResult carries the assigned pattern and the evidence behind it.
type InvocationResult struct {
	Pattern core.Pattern `json:"pattern"`
	// Mean and StdDev summarize the normalized invocation rate; CV is
	// their ratio (inter-arrival variability at the grid resolution).
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	CV     float64 `json:"cv"`
	// Burstiness is the peak-to-mean ratio.
	Burstiness float64 `json:"burstiness"`
	// IdleShare is the fraction of samples below IdleEps.
	IdleShare float64 `json:"idleShare"`
	// DailyACF is the raw autocorrelation at the daily lag.
	DailyACF float64 `json:"dailyACF"`
}

// ClassifyInvocation assigns a normalized invocation-rate series to a
// serverless pattern. It builds the evidence with the same sketches the
// streaming ingestor feeds incrementally (Welford moments via AutoCorr, a
// running peak, an idle counter), so batch and stream agree wherever the
// evidence is not razor-thin against a threshold.
func ClassifyInvocation(series []float64, opts InvocationOptions) InvocationResult {
	classifiedSeries.Inc()
	opts = opts.withDefaults()
	if len(series) == 0 {
		return InvocationResult{Pattern: core.PatternUnknown}
	}
	ac := sketch.NewAutoCorr(24 * opts.StepsPerHour)
	var peak float64
	var idleN int
	for _, v := range series {
		ac.Add(v)
		if v > peak {
			peak = v
		}
		if v < opts.IdleEps {
			idleN++
		}
	}
	res := InvocationEvidence(ac.Mean(), ac.StdDev(), peak,
		float64(idleN)/float64(len(series)), ac.At(24*opts.StepsPerHour))
	res.Pattern = res.Decide(opts)
	return res
}

// InvocationEvidence assembles an InvocationResult from the raw
// accumulator outputs. The streaming ingestor uses it so the derived
// fields (CV, burstiness) are computed by exactly one formula.
func InvocationEvidence(mean, stdDev, peak, idleShare, dailyACF float64) InvocationResult {
	res := InvocationResult{
		Mean:      mean,
		StdDev:    stdDev,
		IdleShare: idleShare,
		DailyACF:  dailyACF,
	}
	if mean > 0 {
		res.CV = stdDev / mean
		res.Burstiness = peak / mean
	}
	return res
}

// Decide maps the evidence to a pattern: the CV ceiling selects steady
// first, a dominant idle share with extreme peak-to-mean selects spiky, a
// validated daily cycle that rarely idles selects diurnal, and bursty is
// the remainder. Shared by the batch and streaming classifiers.
func (r InvocationResult) Decide(opts InvocationOptions) core.Pattern {
	opts = opts.withDefaults()
	switch {
	case r.CV < opts.SteadyCV:
		return core.PatternSteady
	case r.IdleShare >= opts.SpikyIdleShare && r.Burstiness >= opts.SpikyBurstiness:
		return core.PatternSpiky
	case r.DailyACF >= opts.DiurnalMinACF && r.IdleShare <= opts.DiurnalMaxIdle:
		return core.PatternDiurnal
	default:
		return core.PatternBursty
	}
}
