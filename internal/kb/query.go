package kb

import (
	"slices"
	"sort"

	"cloudlens/internal/core"
)

// Query filters profiles. Zero-valued fields match everything.
type Query struct {
	// Cloud restricts to one platform when valid.
	Cloud core.Cloud
	// MinRegionAgnosticScore keeps profiles at or above the score
	// (set to a negative value to disable; 0 keeps all multi-region
	// profiles with non-negative correlation).
	MinRegionAgnosticScore float64
	// Pattern keeps profiles whose dominant pattern matches.
	Pattern core.Pattern
	// MinShortLivedShare keeps churn-heavy subscriptions (spot
	// candidates).
	MinShortLivedShare float64
}

// disabledScore marks MinRegionAgnosticScore as "no filter".
const disabledScore = -2

// MatchAll returns the query that matches every profile. The zero Query is
// NOT match-all: its MinRegionAgnosticScore of 0 silently drops profiles
// whose score is negative (single-region subscriptions carry -1). Any "give
// me the whole knowledge base" caller must use this instead.
func MatchAll() Query { return Query{MinRegionAgnosticScore: disabledScore} }

// Match reports whether one profile satisfies the query.
func (q Query) Match(p *Profile) bool {
	if q.Cloud.Valid() && p.Cloud != q.Cloud {
		return false
	}
	if q.MinRegionAgnosticScore > disabledScore && p.RegionAgnosticScore < q.MinRegionAgnosticScore {
		return false
	}
	if q.Pattern != core.PatternUnknown && p.DominantPattern != q.Pattern {
		return false
	}
	return p.ShortLivedShare >= q.MinShortLivedShare
}

// Summary aggregates the knowledge base per platform.
type Summary struct {
	Cloud             core.Cloud               `json:"cloud"`
	Subscriptions     int                      `json:"subscriptions"`
	VMsObserved       int                      `json:"vmsObserved"`
	SnapshotCores     int                      `json:"snapshotCores"`
	MeanUtilization   float64                  `json:"meanUtilization"`
	PatternShares     map[core.Pattern]float64 `json:"patternShares"`
	RegionAgnostic    int                      `json:"regionAgnostic"`
	MultiRegion       int                      `json:"multiRegion"`
	MedianLifetimeMin float64                  `json:"medianLifetimeMin"`
}

// RegionAgnosticThreshold is the cross-region correlation above which a
// multi-region subscription is considered region-agnostic.
const RegionAgnosticThreshold = 0.8

// summarizeSorted aggregates one platform's slice of a subscription-sorted
// profile list, the body of Snapshot.Summarize. The input order fixes the
// floating-point accumulation order, so the summary is a pure function of
// the profiles, bit for bit.
func summarizeSorted(cloud core.Cloud, profiles []*Profile) Summary {
	sum := Summary{
		Cloud:         cloud,
		PatternShares: make(map[core.Pattern]float64),
	}
	var utilSum float64
	var lifetimes []float64
	classifiedSubs := 0
	for _, p := range profiles {
		if p.Cloud != cloud {
			continue
		}
		sum.Subscriptions++
		sum.VMsObserved += p.VMsObserved
		sum.SnapshotCores += p.SnapshotCores
		if p.MeanUtilization > 0 {
			utilSum += p.MeanUtilization
			classifiedSubs++
		}
		for k, v := range p.PatternShares {
			sum.PatternShares[k] += v
		}
		if len(p.Regions) > 1 {
			sum.MultiRegion++
			if p.RegionAgnosticScore >= RegionAgnosticThreshold {
				sum.RegionAgnostic++
			}
		}
		if p.MedianLifetimeMin > 0 {
			lifetimes = append(lifetimes, p.MedianLifetimeMin)
		}
	}
	if classifiedSubs > 0 {
		sum.MeanUtilization = utilSum / float64(classifiedSubs)
		patterns := make([]core.Pattern, 0, len(sum.PatternShares))
		for k := range sum.PatternShares {
			patterns = append(patterns, k)
		}
		slices.Sort(patterns)
		total := 0.0
		for _, k := range patterns {
			total += sum.PatternShares[k]
		}
		if total > 0 {
			for k := range sum.PatternShares {
				sum.PatternShares[k] /= total
			}
		}
	}
	sort.Float64s(lifetimes)
	if len(lifetimes) > 0 {
		sum.MedianLifetimeMin = lifetimes[len(lifetimes)/2]
	}
	return sum
}
