package kb

import (
	"maps"

	"cloudlens/internal/core"
)

// The paper's Section V envisions a knowledge base that "continuously
// extracts workload knowledge from telemetry signals" — knowledge must be
// refreshed as new observation windows arrive, without forgetting
// established behaviour on a single noisy week. Merge implements that
// continuous update as an exponentially weighted blend of profile
// statistics.

// MergeOptions tunes the continuous update.
type MergeOptions struct {
	// NewWeight is the weight of the incoming observation window in
	// [0, 1]; the existing knowledge keeps 1-NewWeight (default 0.3,
	// a slow-moving EWMA).
	NewWeight float64
}

func (o MergeOptions) withDefaults() MergeOptions {
	if o.NewWeight == 0 {
		o.NewWeight = 0.3
	}
	if o.NewWeight < 0 {
		o.NewWeight = 0
	}
	if o.NewWeight > 1 {
		o.NewWeight = 1
	}
	return o
}

// Merge folds a newer extraction into prev and returns the result as a new
// snapshot, leaving prev untouched. Subscriptions present only in next are
// taken as they are; subscriptions present only in prev are retained
// unchanged (a missing week does not erase knowledge); overlapping
// subscriptions blend numerically and union their region and service
// sets. The result is labelled with next's step and one fold more than
// prev.
func Merge(prev, next *Snapshot, opts MergeOptions) *Snapshot {
	w := opts.withDefaults().NewWeight
	a, b := prev.profiles, next.profiles
	out := make([]*Profile, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].Subscription < b[0].Subscription:
			out, a = append(out, a[0]), a[1:]
		case a[0].Subscription > b[0].Subscription:
			out, b = append(out, b[0]), b[1:]
		default:
			out = append(out, blendProfiles(a[0], b[0], w))
			a, b = a[1:], b[1:]
		}
	}
	out = append(append(out, a...), b...)
	return SnapshotOf(next.step, prev.seq+1, out...)
}

// blendProfiles combines two observations of the same subscription.
func blendProfiles(prev, next *Profile, w float64) *Profile {
	out := &Profile{
		Subscription: prev.Subscription,
		Cloud:        next.Cloud,
		Family:       next.Family,
		Services:     unionSorted(prev.Services, next.Services),
		Regions:      unionSorted(prev.Regions, next.Regions),
		// Counters describe the latest window.
		VMsObserved:   next.VMsObserved,
		SnapshotVMs:   next.SnapshotVMs,
		SnapshotCores: next.SnapshotCores,
		// Behavioural statistics blend.
		MedianLifetimeMin: blend(prev.MedianLifetimeMin, next.MedianLifetimeMin, w),
		ShortLivedShare:   blend(prev.ShortLivedShare, next.ShortLivedShare, w),
		MeanUtilization:   blend(prev.MeanUtilization, next.MeanUtilization, w),
		PatternShares:     blendShares(prev.PatternShares, next.PatternShares, w),
		PeakHourUTC:       next.PeakHourUTC,
	}
	if out.PeakHourUTC < 0 {
		out.PeakHourUTC = prev.PeakHourUTC
	}
	// Region-agnostic scores blend only when both are defined (-1 means
	// single-region / unknown).
	switch {
	case prev.RegionAgnosticScore < 0:
		out.RegionAgnosticScore = next.RegionAgnosticScore
	case next.RegionAgnosticScore < 0:
		out.RegionAgnosticScore = prev.RegionAgnosticScore
	default:
		out.RegionAgnosticScore = blend(prev.RegionAgnosticScore, next.RegionAgnosticScore, w)
	}
	out.DominantPattern = dominantPattern(out.Family, out.PatternShares)
	return out
}

func blend(prev, next, w float64) float64 {
	if prev == 0 {
		return next
	}
	if next == 0 {
		return prev
	}
	return (1-w)*prev + w*next
}

// blendShares blends two pattern-share maps over the union of their
// patterns, a pattern missing from one side reading as a share of 0 there,
// so shares that each summed to 1 still do. A side with no shares
// classified no VM: it is no observation, and the other side stands.
func blendShares(prev, next map[core.Pattern]float64, w float64) map[core.Pattern]float64 {
	out := make(map[core.Pattern]float64, max(len(prev), len(next)))
	switch {
	case len(prev) == 0:
		maps.Copy(out, next)
	case len(next) == 0:
		maps.Copy(out, prev)
	default:
		for k, v := range prev {
			out[k] = (1 - w) * v
		}
		for k, v := range next {
			out[k] += w * v
		}
	}
	return out
}

func unionSorted(a, b []string) []string {
	set := make(map[string]bool, len(a)+len(b))
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		set[v] = true
	}
	return sortedKeys(set)
}
