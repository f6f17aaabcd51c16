// Package balance reproduces the paper's Section IV-B pilot: shifting a
// region-agnostic workload from a "hot" region with many underutilized
// cores (Canada-A) to an idle one (Canada-B). In the paper the shift
// reduced Canada-A's underutilized-core percentage from 23% to 16% and its
// core utilization rate from 42% to 37%, while Canada-B barely moved — an
// improvement in the source region's health at negligible destination cost.
//
// The candidate selection consumes workload-knowledge-base profiles: only
// subscriptions whose cross-region utilization correlation marks them as
// region-agnostic (and whose service the case study names) are eligible,
// since region-sensitive workloads cannot be moved without hurting users.
package balance

import (
	"fmt"
	"sort"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/trace"
)

// UnderutilizedThreshold is the mean-utilization fraction below which a
// VM's cores count as underutilized.
const UnderutilizedThreshold = 0.2

// RegionMetrics is the capacity-health scorecard of one region, following
// the pilot's two measures.
type RegionMetrics struct {
	Region string `json:"region"`
	// PhysicalCores is the private-platform physical capacity.
	PhysicalCores int `json:"physicalCores"`
	// AllocatedCores is the time-averaged allocated core count.
	AllocatedCores float64 `json:"allocatedCores"`
	// UtilizationRate is AllocatedCores / PhysicalCores — the pilot's
	// "core utilization rate".
	UtilizationRate float64 `json:"utilizationRate"`
	// UnderutilizedShare is the share of allocated cores belonging to
	// VMs whose mean utilization is below UnderutilizedThreshold — the
	// pilot's "underutilized core percentage".
	UnderutilizedShare float64 `json:"underutilizedShare"`
}

// Plan is a recommended workload shift.
type Plan struct {
	Service      string              `json:"service"`
	Subscription core.SubscriptionID `json:"subscription"`
	Source       string              `json:"source"`
	Destination  string              `json:"destination"`
	VMs          int                 `json:"vms"`
	Cores        int                 `json:"cores"`
	// AgnosticScore is the knowledge-base cross-region correlation that
	// qualified the workload.
	AgnosticScore float64 `json:"agnosticScore"`
}

// Outcome is the pilot's before/after comparison.
type Outcome struct {
	Plan         Plan          `json:"plan"`
	SourceBefore RegionMetrics `json:"sourceBefore"`
	SourceAfter  RegionMetrics `json:"sourceAfter"`
	DestBefore   RegionMetrics `json:"destBefore"`
	DestAfter    RegionMetrics `json:"destAfter"`
	Cloud        core.Cloud    `json:"cloud"`
	// Moved lists the VM IDs the shift relabeled.
	Moved []core.VMID `json:"moved"`
}

// Metrics computes a region's scorecard from the trace, optionally
// relabeling the VMs in moved to the destination region.
func Metrics(t *trace.Trace, cloud core.Cloud, region string, moved map[core.VMID]bool, movedTo string) RegionMetrics {
	m := RegionMetrics{Region: region}
	m.PhysicalCores = t.Topology.PhysicalCores(region, cloud)
	if m.PhysicalCores == 0 {
		return m
	}
	var allocCoreSteps, underCoreSteps float64
	for i := range t.VMs {
		v := &t.VMs[i]
		if v.Cloud != cloud {
			continue
		}
		effRegion := v.Region
		if moved != nil && moved[v.ID] {
			effRegion = movedTo
		}
		if effRegion != region {
			continue
		}
		from, to, ok := v.AliveRange(t.Grid.N)
		if !ok {
			continue
		}
		steps := float64(to - from)
		cores := float64(v.Size.Cores)
		allocCoreSteps += cores * steps
		if v.Usage.MeanOver(t.Grid, from, to) < UnderutilizedThreshold {
			underCoreSteps += cores * steps
		}
	}
	m.AllocatedCores = allocCoreSteps / float64(t.Grid.N)
	m.UtilizationRate = m.AllocatedCores / float64(m.PhysicalCores)
	if allocCoreSteps > 0 {
		m.UnderutilizedShare = underCoreSteps / allocCoreSteps
	}
	return m
}

// Recommend selects the shift candidate: among the source region's private
// VMs, the service whose subscription profile is region-agnostic
// (score >= kb.RegionAgnosticThreshold) with the most cores. It returns an
// error when the knowledge base offers no region-agnostic candidate — the
// paper stresses that utilization analysis alone is insufficient and only
// confirmed region-agnostic workloads may move.
func Recommend(t *trace.Trace, base *kb.Snapshot, source, dest string) (Plan, error) {
	if _, ok := t.Topology.RegionByName(source); !ok {
		return Plan{}, fmt.Errorf("balance: unknown source region %q", source)
	}
	if _, ok := t.Topology.RegionByName(dest); !ok {
		return Plan{}, fmt.Errorf("balance: unknown destination region %q", dest)
	}
	type cand struct {
		service string
		sub     core.SubscriptionID
		vms     int
		cores   int
		score   float64
	}
	best := cand{}
	snap := t.SnapshotStep()
	byService := make(map[string]*cand)
	for i := range t.VMs {
		v := &t.VMs[i]
		if v.Cloud != core.Private || v.Region != source || !v.AliveAt(snap) {
			continue
		}
		c := byService[v.Service]
		if c == nil {
			c = &cand{service: v.Service, sub: v.Subscription}
			byService[v.Service] = c
		}
		c.vms++
		c.cores += v.Size.Cores
	}
	services := make([]string, 0, len(byService))
	for svc := range byService {
		services = append(services, svc)
	}
	sort.Strings(services)
	for _, svc := range services {
		c := byService[svc]
		profile, ok := base.Get(c.sub)
		if !ok || profile.RegionAgnosticScore < kb.RegionAgnosticThreshold {
			continue
		}
		c.score = profile.RegionAgnosticScore
		if c.cores > best.cores {
			best = *c
		}
	}
	if best.service == "" {
		return Plan{}, fmt.Errorf("balance: no region-agnostic workload found in %s", source)
	}
	return Plan{
		Service:       best.service,
		Subscription:  best.sub,
		Source:        source,
		Destination:   dest,
		VMs:           best.vms,
		Cores:         best.cores,
		AgnosticScore: best.score,
	}, nil
}

// Apply evaluates the shift: it relabels the plan's VMs to the destination
// region (their utilization is region-agnostic, so the series are
// unchanged — exactly the property that makes the shift safe) and computes
// both regions' metrics before and after.
func Apply(t *trace.Trace, plan Plan) Outcome {
	out := Outcome{Plan: plan, Cloud: core.Private}
	moved := make(map[core.VMID]bool)
	for i := range t.VMs {
		v := &t.VMs[i]
		if v.Cloud == core.Private && v.Region == plan.Source && v.Service == plan.Service {
			moved[v.ID] = true
			out.Moved = append(out.Moved, v.ID)
		}
	}
	out.SourceBefore = Metrics(t, core.Private, plan.Source, nil, "")
	out.DestBefore = Metrics(t, core.Private, plan.Destination, nil, "")
	out.SourceAfter = Metrics(t, core.Private, plan.Source, moved, plan.Destination)
	out.DestAfter = Metrics(t, core.Private, plan.Destination, moved, plan.Destination)
	return out
}

// Run performs the full pilot: extract candidates from the knowledge base,
// recommend, and apply.
func Run(t *trace.Trace, base *kb.Snapshot, source, dest string) (Outcome, error) {
	plan, err := Recommend(t, base, source, dest)
	if err != nil {
		return Outcome{}, err
	}
	return Apply(t, plan), nil
}

// HealthImproved reports whether the pilot achieved its goal: the source
// region's underutilized share and utilization rate both decreased while
// the destination's utilization rate moved by less than the source's.
func (o Outcome) HealthImproved() bool {
	srcUnderDown := o.SourceAfter.UnderutilizedShare < o.SourceBefore.UnderutilizedShare
	srcRateDown := o.SourceAfter.UtilizationRate < o.SourceBefore.UtilizationRate
	srcDelta := o.SourceBefore.UtilizationRate - o.SourceAfter.UtilizationRate
	dstDelta := o.DestAfter.UtilizationRate - o.DestBefore.UtilizationRate
	// When both regions have identical physical capacity the deltas are
	// equal up to floating-point rounding; tolerate the tie.
	return srcUnderDown && srcRateDown && dstDelta <= srcDelta+1e-9
}
