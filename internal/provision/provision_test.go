package provision

import (
	"sync"
	"testing"

	"cloudlens/internal/kb"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

var (
	setupOnce sync.Once
	tr        *trace.Trace
	store     *kb.Snapshot
	setupErr  error
)

func shared(t *testing.T) (*trace.Trace, *kb.Snapshot) {
	t.Helper()
	setupOnce.Do(func() {
		cfg := workload.DefaultConfig(39)
		cfg.Scale = 0.5
		tr, setupErr = workload.Generate(cfg)
		if setupErr == nil {
			store = kb.Extract(tr, kb.ExtractOptions{})
		}
	})
	if setupErr != nil {
		t.Fatalf("setup: %v", setupErr)
	}
	return tr, store
}

func TestRunSelectsHourlyPeakService(t *testing.T) {
	trc, st := shared(t)
	res, err := Run(trc, st, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Service == "" {
		t.Fatal("no service selected")
	}
	if res.PeakDemandCores <= res.MeanDemandCores {
		t.Fatal("peak demand not above mean: not a peaky service")
	}
	if res.TestSteps <= 0 {
		t.Fatal("empty test window")
	}
}

func TestPredictiveBeatsReactiveOnThrottling(t *testing.T) {
	trc, st := shared(t)
	res, err := Run(trc, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The headline: reactive scaling cannot follow minute-scale peaks,
	// predictive (knowledge-base-informed) scaling can.
	if res.Predictive.ThrottledCoreHours >= res.Reactive.ThrottledCoreHours {
		t.Fatalf("predictive throttled %.2f core-hours, reactive %.2f: prediction should win",
			res.Predictive.ThrottledCoreHours, res.Reactive.ThrottledCoreHours)
	}
	if res.Predictive.ThrottledSteps >= res.Reactive.ThrottledSteps {
		t.Fatalf("predictive throttles %.3f of steps, reactive %.3f",
			res.Predictive.ThrottledSteps, res.Reactive.ThrottledSteps)
	}
}

func TestPredictiveProvisioningCostReasonable(t *testing.T) {
	trc, st := shared(t)
	res, err := Run(trc, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Prediction must not win by simply holding vastly more capacity.
	if res.Predictive.MeanProvisionedCores > 2*res.Reactive.MeanProvisionedCores {
		t.Fatalf("predictive holds %.1f cores vs reactive %.1f: overbuying",
			res.Predictive.MeanProvisionedCores, res.Reactive.MeanProvisionedCores)
	}
	if res.Predictive.MeanProvisionedCores < res.MeanDemandCores {
		t.Fatal("predictive provisions below mean demand")
	}
}

func TestExplicitService(t *testing.T) {
	trc, st := shared(t)
	res, err := Run(trc, st, Options{Service: workload.ServiceXName})
	if err != nil {
		t.Fatalf("Run(servicex): %v", err)
	}
	if res.Service != workload.ServiceXName {
		t.Fatalf("service = %q", res.Service)
	}
}

func TestUnknownServiceFails(t *testing.T) {
	trc, st := shared(t)
	if _, err := Run(trc, st, Options{Service: "ghost"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestTrainingWindowValidation(t *testing.T) {
	trc, st := shared(t)
	if _, err := Run(trc, st, Options{TrainDays: 9}); err == nil {
		t.Fatal("expected error for training window covering the whole week")
	}
}
