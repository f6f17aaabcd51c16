// Package oversub implements the dynamic resource over-subscription system
// the paper motivates for private cloud workloads (Section III-B): instead
// of reserving every VM's full requested cores (the baseline), each node
// reserves only as many cores as its hosted VMs actually use "most of the
// time", formulated as a chance constraint:
//
//	P( aggregate usage > reservation ) <= epsilon
//
// solved per node with the empirical quantile of the week's aggregate-usage
// distribution. The paper reports that the chance-constrained approach
// improved utilization by 20% to 86% in Azure "depending on the level of
// safety constraint"; the sweep over epsilon reproduces exactly that band.
package oversub

import (
	"fmt"
	"sort"

	"cloudlens/internal/core"
	"cloudlens/internal/stats"
	"cloudlens/internal/trace"
)

// Options tunes the experiment.
type Options struct {
	// Cloud selects the platform (default Private, the paper's target).
	Cloud core.Cloud
	// Epsilons is the safety sweep, strictest first (default
	// 0.0001, 0.001, 0.01, 0.05, 0.1).
	Epsilons []float64
}

const (
	// minVMsPerNode skips nearly empty nodes.
	minVMsPerNode = 2
	// staticBaselineFraction is the static over-subscription rule the
	// chance-constrained policy is compared against, as in the paper's
	// reference [17] where the 20%-86% improvement is over "baseline
	// methods": the baseline reserves this fraction of each node's peak
	// requested cores.
	staticBaselineFraction = 0.42
)

func (o Options) withDefaults() Options {
	if !o.Cloud.Valid() {
		o.Cloud = core.Private
	}
	if len(o.Epsilons) == 0 {
		o.Epsilons = []float64{0.0001, 0.001, 0.01, 0.05, 0.1}
	}
	return o
}

// Point is the outcome of one safety level.
type Point struct {
	// Epsilon is the allowed violation probability.
	Epsilon float64 `json:"epsilon"`
	// ReservedCores is the fleet-total chance-constrained reservation.
	ReservedCores float64 `json:"reservedCores"`
	// UtilizationGain is reservation_static/reservation_cc - 1: the
	// relative utilization improvement over the static over-subscription
	// baseline (the paper's comparison).
	UtilizationGain float64 `json:"utilizationGain"`
	// GainVsRequested is reservation_requested/reservation_cc - 1: the
	// improvement over reserving every requested core (no
	// over-subscription at all).
	GainVsRequested float64 `json:"gainVsRequested"`
	// ViolationRate is the realized fraction of node-steps where usage
	// exceeded the reservation (should track epsilon).
	ViolationRate float64 `json:"violationRate"`
}

// Result is the sweep outcome.
type Result struct {
	Cloud core.Cloud `json:"cloud"`
	// Nodes is the number of nodes included.
	Nodes int `json:"nodes"`
	// BaselineCores is the fleet-total peak (requested) reservation.
	BaselineCores float64 `json:"baselineCores"`
	// StaticCores is the fleet-total reservation of the static
	// over-subscription baseline.
	StaticCores float64 `json:"staticCores"`
	// MeanUsedCores is the fleet-total average actual usage.
	MeanUsedCores float64 `json:"meanUsedCores"`
	// Points holds one entry per epsilon, strictest first.
	Points []Point `json:"points"`
}

// Run executes the over-subscription experiment on a trace.
func Run(t *trace.Trace, opts Options) (Result, error) {
	opts = opts.withDefaults()
	res := Result{Cloud: opts.Cloud}
	eps := append([]float64(nil), opts.Epsilons...)
	sort.Float64s(eps)

	type nodeData struct {
		usage     []float64 // used cores per step
		requested []float64 // allocated (requested) cores per step
	}
	var nodes []nodeData
	for _, vms := range t.ByNode(opts.Cloud) {
		if len(vms) < minVMsPerNode {
			continue
		}
		nd := nodeData{
			usage:     make([]float64, t.Grid.N),
			requested: make([]float64, t.Grid.N),
		}
		for _, v := range vms {
			from, to, ok := v.AliveRange(t.Grid.N)
			if !ok {
				continue
			}
			w := float64(v.Size.Cores)
			for s := from; s < to; s++ {
				nd.usage[s] += v.Usage.At(t.Grid, s) * w
				nd.requested[s] += w
			}
		}
		nodes = append(nodes, nd)
	}
	if len(nodes) == 0 {
		return res, fmt.Errorf("oversub: no nodes with >= %d VMs in the %s cloud", minVMsPerNode, opts.Cloud)
	}
	res.Nodes = len(nodes)

	// Baseline: each node reserves its peak requested cores (no
	// over-subscription; every VM gets what it asked for).
	for _, nd := range nodes {
		res.BaselineCores += stats.Max(nd.requested)
		res.MeanUsedCores += stats.Mean(nd.usage)
	}
	res.StaticCores = res.BaselineCores * staticBaselineFraction

	for _, e := range eps {
		var reserved float64
		violations, steps := 0, 0
		for _, nd := range nodes {
			q := stats.Quantile(nd.usage, 1-e)
			// A reservation never exceeds the baseline request: the
			// chance constraint only shrinks allocations.
			peakReq := stats.Max(nd.requested)
			if q > peakReq {
				q = peakReq
			}
			reserved += q
			for _, u := range nd.usage {
				steps++
				if u > q {
					violations++
				}
			}
		}
		p := Point{
			Epsilon:       e,
			ReservedCores: reserved,
		}
		if reserved > 0 {
			p.UtilizationGain = res.StaticCores/reserved - 1
			p.GainVsRequested = res.BaselineCores/reserved - 1
		}
		if steps > 0 {
			p.ViolationRate = float64(violations) / float64(steps)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// GainRange returns the smallest and largest utilization gain of the sweep,
// the numbers comparable to the paper's "20% to 86%" band.
func (r Result) GainRange() (lo, hi float64) {
	if len(r.Points) == 0 {
		return 0, 0
	}
	lo, hi = r.Points[0].UtilizationGain, r.Points[0].UtilizationGain
	for _, p := range r.Points[1:] {
		if p.UtilizationGain < lo {
			lo = p.UtilizationGain
		}
		if p.UtilizationGain > hi {
			hi = p.UtilizationGain
		}
	}
	return lo, hi
}
