package classify

import (
	"math"
	"testing"

	"cloudlens/internal/core"
)

// invocation test series are built at the serverless default resolution
// (12 steps/hour would be the CPU grid; the family default is one-minute,
// 60 steps/hour) over two days — the minimum window the taxonomy needs.
const (
	invSPH  = 60
	invDays = 2
	invN    = invDays * 24 * invSPH
)

func invOpts() InvocationOptions { return InvocationOptions{StepsPerHour: invSPH} }

// TestClassifyInvocationSteady: a near-constant rate with low CV.
func TestClassifyInvocationSteady(t *testing.T) {
	series := make([]float64, invN)
	for i := range series {
		series[i] = 0.5 + 0.02*math.Sin(float64(i)/7)
	}
	res := ClassifyInvocation(series, invOpts())
	if res.Pattern != core.PatternSteady {
		t.Fatalf("pattern %s (cv=%.3f), want steady", res.Pattern, res.CV)
	}
	if res.CV >= 0.3 {
		t.Errorf("steady series reported cv %.3f >= 0.3", res.CV)
	}
}

// TestClassifyInvocationSpiky: idle almost always, rare tall spikes.
func TestClassifyInvocationSpiky(t *testing.T) {
	series := make([]float64, invN)
	for i := range series {
		if i%(6*invSPH) < 5 { // five hot minutes every six hours
			series[i] = 0.9
		}
	}
	res := ClassifyInvocation(series, invOpts())
	if res.Pattern != core.PatternSpiky {
		t.Fatalf("pattern %s (idle=%.3f burst=%.1f), want spiky",
			res.Pattern, res.IdleShare, res.Burstiness)
	}
	if res.IdleShare < 0.7 {
		t.Errorf("spiky series reported idle share %.3f < 0.7", res.IdleShare)
	}
}

// TestClassifyInvocationDiurnal: a daily sinusoid that never goes idle.
func TestClassifyInvocationDiurnal(t *testing.T) {
	series := make([]float64, invN)
	day := float64(24 * invSPH)
	for i := range series {
		series[i] = 0.5 + 0.35*math.Sin(2*math.Pi*float64(i)/day)
	}
	res := ClassifyInvocation(series, invOpts())
	if res.Pattern != core.PatternDiurnal {
		t.Fatalf("pattern %s (acf=%.3f idle=%.3f cv=%.3f), want diurnal",
			res.Pattern, res.DailyACF, res.IdleShare, res.CV)
	}
	if res.DailyACF < 0.3 {
		t.Errorf("diurnal series reported daily ACF %.3f < 0.3", res.DailyACF)
	}
}

// TestClassifyInvocationBursty: clustered bursts over a quiet floor —
// variable enough to miss steady, too busy for spiky, no daily cycle.
func TestClassifyInvocationBursty(t *testing.T) {
	series := make([]float64, invN)
	for i := range series {
		series[i] = 0.1
		// Bursts at an 11-hour cadence so the daily lag finds nothing.
		if i%(11*invSPH) < 90 {
			series[i] = 0.8
		}
	}
	res := ClassifyInvocation(series, invOpts())
	if res.Pattern != core.PatternBursty {
		t.Fatalf("pattern %s (cv=%.3f idle=%.3f acf=%.3f), want bursty",
			res.Pattern, res.CV, res.IdleShare, res.DailyACF)
	}
}

// TestClassifyInvocationEmpty: no samples, no verdict.
func TestClassifyInvocationEmpty(t *testing.T) {
	if res := ClassifyInvocation(nil, invOpts()); res.Pattern != core.PatternUnknown {
		t.Fatalf("empty series classified as %s", res.Pattern)
	}
}

// TestInvocationEvidenceZeroMean: a dead function must not divide by zero;
// CV and burstiness stay zero and the verdict lands on steady (cv 0 < any
// ceiling), matching the batch classifier's behavior on an all-zero series.
func TestInvocationEvidenceZeroMean(t *testing.T) {
	res := InvocationEvidence(0, 0, 0, 1, 0)
	if res.CV != 0 || res.Burstiness != 0 {
		t.Fatalf("zero-mean evidence produced cv=%v burstiness=%v", res.CV, res.Burstiness)
	}
}

// TestInvocationOptionsWithDefaults pins the StepsPerHour default and the
// serverless taxonomy's constants at the values DESIGN.md documents.
func TestInvocationOptionsWithDefaults(t *testing.T) {
	if o := (InvocationOptions{}).withDefaults(); o.StepsPerHour != 12 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	// An explicit resolution survives.
	if o := (InvocationOptions{StepsPerHour: 120}).withDefaults(); o.StepsPerHour != 120 {
		t.Fatalf("explicit options overwritten: %+v", o)
	}
	if steadyCV != 0.3 || IdleEps != 0.05 || spikyIdleShare != 0.7 ||
		spikyBurstiness != 6 || diurnalMinACF != 0.3 || diurnalMaxIdle != 0.15 {
		t.Fatalf("thresholds moved: steady cv %v, idle %v, spiky idle %v, burstiness %v, diurnal acf %v, diurnal idle %v",
			steadyCV, IdleEps, spikyIdleShare, spikyBurstiness, diurnalMinACF, diurnalMaxIdle)
	}
}
