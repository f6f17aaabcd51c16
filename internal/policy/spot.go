package policy

import (
	"fmt"
	"math"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/spot"
)

func init() {
	RegisterBuilder("spot", newSpotAdmit)
}

// SpotAdmit routes an ask between evictable spot capacity, firm
// on-demand capacity, and rejection. Spot admission scores with the free
// capacity of the workload's cloud (cores-weighted mean utilization over
// the snapshot) scaled by the headroom fraction spot VMs may harvest and
// the workload's eviction tolerance (spot.EvictionTolerance — short-lived,
// irregular work tolerates preemption; stable services do not). On-demand
// admission scores with free capacity alone at a conservative weight, so
// it wins exactly when the workload's tolerance is too low to justify
// spot. Unknown subscriptions fall back to on-demand — admitting blind
// onto evictable capacity is never chosen.
//
// Parameters: headroom=<float in (0,1]> (share of free capacity spot may
// fill, default 0.6 matching the spot pilot's headroom), ondemand=<float in (0,1]>
// (on-demand weight, default 0.4).
type spotAdmitPolicy struct {
	headroom float64
	ondemand float64
}

func newSpotAdmit(params map[string]string) (Policy, error) {
	p := &spotAdmitPolicy{headroom: 0.6, ondemand: 0.4}
	for key, val := range params {
		switch key {
		case "headroom":
			f, err := parseFiniteFloat(val)
			if err != nil || f <= 0 || f > 1 {
				return nil, fmt.Errorf("headroom: want a float in (0,1], got %q", val)
			}
			p.headroom = f
		case "ondemand":
			f, err := parseFiniteFloat(val)
			if err != nil || f <= 0 || f > 1 {
				return nil, fmt.Errorf("ondemand: want a float in (0,1], got %q", val)
			}
			p.ondemand = f
		default:
			return nil, fmt.Errorf("unknown parameter %q", key)
		}
	}
	return p, nil
}

func (p *spotAdmitPolicy) Name() string { return "spot" }

func (p *spotAdmitPolicy) Evaluate(sn *kb.Snapshot, req Request, tr *Tracer) []Alternative {
	prof, profKnown := sn.Get(req.Subscription)
	cloud := core.Public
	if profKnown {
		cloud = prof.Cloud
	}
	util := cloudUtilization(sn, cloud)
	free := math.Max(0, 1-util)
	tr.Record("cloud_utilization", util, cloud.String())
	tr.Record("free_capacity", free, "")

	od := Alternative{
		Action: "admit-on-demand",
		Accept: true,
		Score:  free * p.ondemand,
		Note:   fmt.Sprintf("free capacity %.3f at on-demand weight %.2f", free, p.ondemand),
	}
	rej := Alternative{Action: "reject", Note: "no capacity worth committing"}
	if !profKnown {
		od.Note = "subscription not in knowledge base; defaulting to firm capacity"
		return []Alternative{od, rej}
	}
	tol := spot.EvictionTolerance(prof.ShortLivedShare, prof.DominantPattern)
	tr.Record("eviction_tolerance", tol, prof.DominantPattern.String())
	spotAlt := Alternative{
		Action: "admit-spot",
		Accept: true,
		Score:  free * p.headroom * tol,
		Note: fmt.Sprintf("tolerance %.3f × headroom %.2f × free %.3f",
			tol, p.headroom, free),
	}
	return []Alternative{spotAlt, od, rej}
}

// cloudUtilization is the cores-weighted mean utilization of one cloud's
// snapshot profiles. Deterministic: profiles iterate in subscription
// order and the accumulation is sequential.
func cloudUtilization(sn *kb.Snapshot, cloud core.Cloud) float64 {
	var cores, weighted float64
	for _, p := range sn.Profiles() {
		if p.Cloud != cloud || p.SnapshotCores <= 0 {
			continue
		}
		if math.IsNaN(p.MeanUtilization) || p.MeanUtilization < 0 {
			continue
		}
		c := float64(p.SnapshotCores)
		cores += c
		weighted += c * math.Min(1, p.MeanUtilization)
	}
	if cores == 0 {
		return 0
	}
	return weighted / cores
}
