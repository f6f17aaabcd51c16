// Package provision implements the predictive resource pre-provisioning
// the paper recommends for hourly-peak workloads (Section IV-A
// implication, citing intelligent VM provisioning and overclocking-based
// peak absorption): meeting-join spikes at the hour and half-hour marks are
// too fast for reactive auto-scaling, but they are perfectly predictable
// from the workload knowledge base, so capacity can be raised moments
// before each peak.
//
// The experiment compares a reactive scaler (provision to the recent
// observed maximum, with a reaction delay) against a predictive scaler
// (provision to the time-of-day profile learned from the first days of the
// week), both evaluated on the remainder of the week. The headline metric
// is throttled demand: core-hours requested above the provisioned capacity.
package provision

import (
	"fmt"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/trace"
)

// Options tunes the experiment.
type Options struct {
	// Service is the target deployment ("" selects the trace's largest
	// hourly-peak private service by snapshot cores, using the
	// knowledge base).
	Service string
	// TrainDays is how many leading days feed the predictive profile
	// (default 3).
	TrainDays int
}

const (
	// reactionDelaySteps is the reactive scaler's lag: 2 steps, i.e. 10
	// minutes — optimistic for real autoscalers.
	reactionDelaySteps = 2
	// windowSteps is the reactive scaler's look-back window: 12 steps,
	// 1 hour.
	windowSteps = 12
	// marginFrac is the headroom both policies add.
	marginFrac = 0.15
)

func (o Options) withDefaults() Options {
	if o.TrainDays == 0 {
		o.TrainDays = 3
	}
	return o
}

// PolicyResult reports one scaling policy's outcome over the test window.
type PolicyResult struct {
	Policy string `json:"policy"`
	// ThrottledCoreHours is demand above provisioned capacity — user-
	// visible slowdown.
	ThrottledCoreHours float64 `json:"throttledCoreHours"`
	// ThrottledSteps is the fraction of test steps with any throttling.
	ThrottledSteps float64 `json:"throttledSteps"`
	// MeanProvisionedCores is the average capacity held.
	MeanProvisionedCores float64 `json:"meanProvisionedCores"`
	// OverProvisionedCoreHours is capacity held above demand.
	OverProvisionedCoreHours float64 `json:"overProvisionedCoreHours"`
}

// Result is the reactive-vs-predictive comparison.
type Result struct {
	Service string `json:"service"`
	// PeakDemandCores is the maximum demand in the test window.
	PeakDemandCores float64 `json:"peakDemandCores"`
	// MeanDemandCores is the average demand in the test window.
	MeanDemandCores float64 `json:"meanDemandCores"`
	// TestSteps is the evaluation span.
	TestSteps  int          `json:"testSteps"`
	Reactive   PolicyResult `json:"reactive"`
	Predictive PolicyResult `json:"predictive"`
}

// Run executes the comparison for the selected service.
func Run(t *trace.Trace, base *kb.Snapshot, opts Options) (Result, error) {
	opts = opts.withDefaults()
	service := opts.Service
	if service == "" {
		var err error
		service, err = pickHourlyPeakService(t, base)
		if err != nil {
			return Result{}, err
		}
	}
	demand := serviceDemand(t, service)
	if demand == nil {
		return Result{}, fmt.Errorf("provision: service %q has no demand", service)
	}

	stepsPerDay := t.Grid.StepsPerDay()
	trainEnd := opts.TrainDays * stepsPerDay
	if trainEnd >= t.Grid.N {
		return Result{}, fmt.Errorf("provision: %d training days leave no test window", opts.TrainDays)
	}

	res := Result{
		Service:   service,
		TestSteps: t.Grid.N - trainEnd,
	}
	for s := trainEnd; s < t.Grid.N; s++ {
		if demand[s] > res.PeakDemandCores {
			res.PeakDemandCores = demand[s]
		}
		res.MeanDemandCores += demand[s]
	}
	res.MeanDemandCores /= float64(res.TestSteps)

	reactive := reactiveProvisioner(demand)
	profile := predictiveProvisioner(demand, trainEnd, stepsPerDay)
	// The deployed predictive policy keeps the reactive scaler as a
	// safety net: the learned time-of-day profile pre-provisions the
	// recurring peaks, and the reactive floor covers demand growth the
	// training days never saw (service rollouts mid-week). Prediction
	// without the net underprovisions whenever the workload grows.
	hybrid := func(s int) float64 {
		p, r := profile(s), reactive(s)
		if r > p {
			return r
		}
		return p
	}
	res.Reactive = evaluate("reactive", demand, trainEnd, t, reactive)
	res.Predictive = evaluate("predictive", demand, trainEnd, t, hybrid)
	return res, nil
}

// pickHourlyPeakService selects the private service with the largest
// snapshot core footprint whose owning subscription profiles as
// hourly-peak-dominant.
func pickHourlyPeakService(t *trace.Trace, base *kb.Snapshot) (string, error) {
	snap := t.SnapshotStep()
	cores := make(map[string]int)
	owner := make(map[string]core.SubscriptionID)
	for i := range t.VMs {
		v := &t.VMs[i]
		if v.Cloud != core.Private || !v.AliveAt(snap) {
			continue
		}
		cores[v.Service] += v.Size.Cores
		owner[v.Service] = v.Subscription
	}
	best, bestCores := "", 0
	for svc, c := range cores {
		p, ok := base.Get(owner[svc])
		if !ok || p.DominantPattern != core.PatternHourlyPeak {
			continue
		}
		if c > bestCores || (c == bestCores && svc < best) {
			best, bestCores = svc, c
		}
	}
	if best == "" {
		return "", fmt.Errorf("provision: no hourly-peak service in the knowledge base")
	}
	return best, nil
}

// serviceDemand returns the service's used cores per step.
func serviceDemand(t *trace.Trace, service string) []float64 {
	demand := make([]float64, t.Grid.N)
	found := false
	for i := range t.VMs {
		v := &t.VMs[i]
		if v.Service != service {
			continue
		}
		found = true
		from, to, ok := v.AliveRange(t.Grid.N)
		if !ok {
			continue
		}
		w := float64(v.Size.Cores)
		for s := from; s < to; s++ {
			demand[s] += v.Usage.At(t.Grid, s) * w
		}
	}
	if !found {
		return nil
	}
	return demand
}

// provisioner maps a step to provisioned cores.
type provisioner func(step int) float64

// reactiveProvisioner provisions to the maximum demand observed in
// [s-delay-window, s-delay], plus margin: it can only see the past.
func reactiveProvisioner(demand []float64) provisioner {
	return func(s int) float64 {
		hi := s - reactionDelaySteps
		lo := hi - windowSteps
		if lo < 0 {
			lo = 0
		}
		maxD := 0.0
		for i := lo; i < hi; i++ {
			if demand[i] > maxD {
				maxD = demand[i]
			}
		}
		return maxD * (1 + marginFrac)
	}
}

// predictiveProvisioner provisions to the time-of-day demand profile
// learned from the training days (the knowledge-base knowledge: peaks
// recur at the same minutes every day), plus margin.
func predictiveProvisioner(demand []float64, trainEnd, stepsPerDay int) provisioner {
	profile := make([]float64, stepsPerDay)
	for s := 0; s < trainEnd; s++ {
		tod := s % stepsPerDay
		if demand[s] > profile[tod] {
			profile[tod] = demand[s]
		}
	}
	return func(s int) float64 {
		return profile[s%stepsPerDay] * (1 + marginFrac)
	}
}

// evaluate scores a provisioner over the test window.
func evaluate(name string, demand []float64, trainEnd int, t *trace.Trace, p provisioner) PolicyResult {
	res := PolicyResult{Policy: name}
	stepHours := t.Grid.Step.Hours()
	throttledSteps := 0
	steps := 0
	for s := trainEnd; s < t.Grid.N; s++ {
		prov := p(s)
		res.MeanProvisionedCores += prov
		if demand[s] > prov {
			res.ThrottledCoreHours += (demand[s] - prov) * stepHours
			throttledSteps++
		} else {
			res.OverProvisionedCoreHours += (prov - demand[s]) * stepHours
		}
		steps++
	}
	if steps > 0 {
		res.MeanProvisionedCores /= float64(steps)
		res.ThrottledSteps = float64(throttledSteps) / float64(steps)
	}
	return res
}
