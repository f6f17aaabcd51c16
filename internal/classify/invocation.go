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
// Like the CPU taxonomy, the evidence (Rules.Add over Evidence) and the
// decision (InvocationResult.Decide) are shared between the batch path,
// which folds a materialized series, and the streaming path, which folds
// the same samples as they arrive, so both apply one set of thresholds.
package classify

import (
	"cloudlens/internal/core"
	"cloudlens/internal/sketch"
)

// The serverless taxonomy's fixed thresholds. Like the CPU taxonomy's,
// they are constants, not options.
const (
	// steadyCV is the coefficient-of-variation ceiling for the steady
	// class.
	steadyCV = 0.3
	// idleEps is the rate below which a sample counts as idle.
	idleEps = 0.05
	// spikyIdleShare and spikyBurstiness are the idle-share and
	// peak-to-mean floors for the spiky class.
	spikyIdleShare  = 0.7
	spikyBurstiness = 6
	// diurnalMinACF is the daily-autocorrelation floor for the diurnal
	// class.
	diurnalMinACF = 0.3
	// diurnalMaxIdle is the idle-share ceiling for the diurnal class: a
	// diurnally modulated burst train still spends much of its time at
	// the idle floor, a genuinely diurnal rate almost never does.
	diurnalMaxIdle = 0.15
)

// InvocationOptions describes the series the invocation-rate classifier
// reads. All grid dependence enters through StepsPerHour — nothing in this
// file assumes the five-minute grid.
type InvocationOptions struct {
	// StepsPerHour describes the series resolution (default 12). The
	// daily-autocorrelation lag is 24*StepsPerHour.
	StepsPerHour int
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
	// IdleShare is the fraction of samples below idleEps.
	IdleShare float64 `json:"idleShare"`
	// DailyACF is the raw autocorrelation at the daily lag.
	DailyACF float64 `json:"dailyACF"`
}

// ClassifyInvocation assigns a normalized invocation-rate series to a
// serverless pattern. It folds the series through the serverless Rules and
// an autocorrelation sketch, exactly as the streaming ingestor folds the
// same samples, so batch and stream compute identical evidence.
func ClassifyInvocation(series []float64, opts InvocationOptions) InvocationResult {
	return NewRules(core.FamilyServerless, opts.StepsPerHour).classifyInvocation(series)
}

// classifyInvocation is ClassifyInvocation on the rules' grid. Its sketch
// tracks the rules' lags, the daily lag alone, as every streamed serverless
// sketch does.
func (r Rules) classifyInvocation(series []float64) InvocationResult {
	classifiedSeries.Inc()
	if len(series) == 0 {
		return InvocationResult{Pattern: core.PatternUnknown}
	}
	ac := sketch.NewAutoCorr(r.Lags()...)
	var e Evidence
	for i, v := range series {
		ac.Add(v)
		r.Add(&e, i, v)
	}
	res := r.invocationResult(&e, ac)
	res.Pattern = res.Decide()
	return res
}

// invocationResult derives the serverless evidence fields from the
// accumulators: the sketch's moments and daily autocorrelation, the
// evidence's peak and idle count.
func (r Rules) invocationResult(e *Evidence, ac *sketch.AutoCorr) InvocationResult {
	res := InvocationResult{
		Mean:     ac.Mean(),
		StdDev:   ac.StdDev(),
		DailyACF: ac.At(r.day()),
	}
	if n := ac.N(); n > 0 {
		res.IdleShare = float64(e.IdleN) / float64(n)
	}
	if res.Mean > 0 {
		res.CV = res.StdDev / res.Mean
		res.Burstiness = e.PeakMax / res.Mean
	}
	return res
}

// Decide maps the evidence to a pattern: the CV ceiling selects steady
// first, a dominant idle share with extreme peak-to-mean selects spiky, a
// validated daily cycle that rarely idles selects diurnal, and bursty is
// the remainder. Shared by the batch and streaming classifiers.
func (r InvocationResult) Decide() core.Pattern {
	switch {
	case r.CV < steadyCV:
		return core.PatternSteady
	case r.IdleShare >= spikyIdleShare && r.Burstiness >= spikyBurstiness:
		return core.PatternSpiky
	case r.DailyACF >= diurnalMinACF && r.IdleShare <= diurnalMaxIdle:
		return core.PatternDiurnal
	default:
		return core.PatternBursty
	}
}
