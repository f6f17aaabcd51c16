// Package kb implements the centralized workload knowledge base the paper
// proposes in Section V: a store of per-subscription workload knowledge
// continuously extracted from telemetry signals (CPU utilization, VM
// lifetime, deployment spread) that management policies consume instead of
// raw traces. The paper positions this as "the key pillar of the future
// workload-aware intelligent cloud platform"; the over-subscription, spot,
// and region-balancing policies in this repository all accept knowledge-
// base profiles as input. The knowledge base is one value, the immutable
// Snapshot: extraction, a loaded file, a merge and every streaming fold each
// make a new one.
package kb

import (
	"cmp"
	"slices"
	"sort"

	"cloudlens/internal/classify"
	"cloudlens/internal/core"
	"cloudlens/internal/parallel"
	"cloudlens/internal/sim"
	"cloudlens/internal/stats"
	"cloudlens/internal/trace"
)

// Profile is the extracted knowledge about one subscription's workload.
type Profile struct {
	Subscription core.SubscriptionID `json:"subscription"`
	Cloud        core.Cloud          `json:"cloud"`
	// Family is the workload family the profile was extracted from; it
	// decides which taxonomy PatternShares uses and what MeanUtilization
	// means (CPU fraction vs normalized invocation rate).
	Family core.Family `json:"family,omitempty"`
	// Services lists the subscription's deployment groups.
	Services []string `json:"services"`
	// Regions lists the deployment regions observed during the week.
	Regions []string `json:"regions"`
	// VMsObserved is the total number of VM records over the week;
	// SnapshotVMs and SnapshotCores describe the weekday snapshot.
	VMsObserved   int `json:"vmsObserved"`
	SnapshotVMs   int `json:"snapshotVMs"`
	SnapshotCores int `json:"snapshotCores"`
	// MedianLifetimeMin is the median lifetime of the subscription's
	// within-window VMs (0 when none completed inside the window).
	MedianLifetimeMin float64 `json:"medianLifetimeMin"`
	// ShortLivedShare is the fraction of within-window VMs below the
	// shortest lifetime bin — the spot-VM candidate signal.
	ShortLivedShare float64 `json:"shortLivedShare"`
	// PatternShares holds the classified utilization-pattern mix of the
	// subscription's long-running VMs.
	PatternShares map[core.Pattern]float64 `json:"patternShares"`
	// DominantPattern is the largest entry of PatternShares.
	DominantPattern core.Pattern `json:"dominantPattern"`
	// MeanUtilization is the average CPU fraction across long-running
	// VMs over the week.
	MeanUtilization float64 `json:"meanUtilization"`
	// RegionAgnosticScore is the mean pairwise cross-region utilization
	// correlation (the Figure 7b signal); -1 when the subscription is
	// single-region and the score is undefined.
	RegionAgnosticScore float64 `json:"regionAgnosticScore"`
	// PeakHourUTC is the UTC hour of the subscription's highest mean
	// utilization; -1 when unknown.
	PeakHourUTC int `json:"peakHourUTC"`
}

// ShortBinMinutes is the shortest-lifetime-bin width: a VM that lives
// less than this many minutes counts as short-lived. The streaming
// ingestor applies the same bin.
const ShortBinMinutes = 30

// DefaultMaxClassifyPerSub is ExtractOptions.MaxClassifyPerSub's default,
// shared with the streaming pipeline's options.
const DefaultMaxClassifyPerSub = 24

// ExtractOptions tunes profile extraction.
type ExtractOptions struct {
	// MaxClassifyPerSub caps how many long-running VMs are classified
	// per subscription (default DefaultMaxClassifyPerSub);
	// classification dominates cost.
	MaxClassifyPerSub int
}

func (o ExtractOptions) withDefaults() ExtractOptions {
	if o.MaxClassifyPerSub == 0 {
		o.MaxClassifyPerSub = DefaultMaxClassifyPerSub
	}
	return o
}

// MinProfileSteps is the history (one day) a VM needs to contribute
// pattern and utilization knowledge on the canonical five-minute grid.
// Grid-independent code must use MinProfileStepsFor: this constant baked
// the five-minute interval into every qualification test, which broke
// coarser grids outright (at 15-minute steps the streaming sketches retain
// fewer than 288 samples, so the qualification flush silently lost
// history) and made finer grids qualify after a fraction of a day.
const MinProfileSteps = 288

// MinProfileStepsFor is the qualification threshold for an arbitrary grid:
// one day of history, whatever the sampling interval. It is always within
// the streaming sketches' retention window (1.5 days), so the
// qualification flush recovers every sample. Exported so the streaming
// pipeline applies the same threshold when it folds live samples into
// knowledge-base state.
func MinProfileStepsFor(g sim.Grid) int {
	return g.StepsPerDay()
}

// extractChunkSubs is how many subscriptions one unit of Extract's fan-out
// profiles: enough to amortize claiming a unit, few enough that the last
// units finish close together.
const extractChunkSubs = 8

// Extract builds a knowledge base from a trace, labelled with the trace's
// last grid step and one fold. Subscriptions are profiled independently,
// so they fan out over the worker pool in units of consecutive
// subscriptions, each profile stored at its subscription's index.
// Profiles are identical to a sequential extraction: all per-subscription
// state is worker-local, and a reused series buffer is overwritten before
// it is read.
func Extract(t *trace.Trace, opts ExtractOptions) *Snapshot {
	opts = opts.withDefaults()
	rules := classify.NewRules(t.Family, t.Grid.StepsPerHour())

	type job struct {
		sub core.SubscriptionID
		vms []*trace.VM
	}
	var jobs []job
	for _, cloud := range core.Clouds() {
		for sub, vms := range t.BySubscription(cloud) {
			jobs = append(jobs, job{sub: sub, vms: vms})
		}
	}
	// Stable, so a subscription that appears on both platforms keeps its
	// platforms in core.Clouds order.
	slices.SortStableFunc(jobs, func(a, b job) int { return cmp.Compare(a.sub, b.sub) })
	// Subscriptions differ widely in cost, so they are claimed in small
	// units rather than split into one static range per worker. Units hand
	// their series buffer on through a free list, so the pass allocates one
	// buffer per worker taking part, not one per unit.
	profiles := make([]*Profile, len(jobs))
	free := make(chan []float64, parallel.Workers())
	parallel.ForEach((len(jobs)+extractChunkSubs-1)/extractChunkSubs, func(c int) {
		var buf []float64
		select {
		case buf = <-free:
		default:
		}
		for i := c * extractChunkSubs; i < min(len(jobs), (c+1)*extractChunkSubs); i++ {
			profiles[i], buf = extractProfile(t, opts, rules, jobs[i].sub, jobs[i].vms, buf)
		}
		select {
		case free <- buf:
		default:
		}
	})
	// Such a subscription is one entry in the knowledge base: the last
	// platform's profile stands.
	kept := profiles[:0]
	for i, p := range profiles {
		if i+1 == len(profiles) || profiles[i+1].Subscription != p.Subscription {
			kept = append(kept, p)
		}
	}
	return SnapshotOf(t.Grid.N, 1, kept...)
}

// extractProfile profiles one subscription. buf is a scratch series buffer
// threaded through consecutive calls on the same worker; the (possibly
// grown) buffer is returned for reuse.
func extractProfile(t *trace.Trace, opts ExtractOptions, rules classify.Rules,
	sub core.SubscriptionID, vms []*trace.VM, buf []float64) (*Profile, []float64) {
	snap := t.SnapshotStep()
	minSteps := MinProfileStepsFor(t.Grid)
	p := &Profile{
		Subscription:        sub,
		Cloud:               vms[0].Cloud,
		Family:              t.Family,
		VMsObserved:         len(vms),
		RegionAgnosticScore: -1,
	}
	regionSet := make(map[string]bool)
	serviceSet := make(map[string]bool)
	var lifetimes []float64
	shortLived := 0
	var tally Tally

	for _, v := range vms {
		regionSet[v.Region] = true
		serviceSet[v.Service] = true
		if v.AliveAt(snap) {
			p.SnapshotVMs++
			p.SnapshotCores += v.Size.Cores
		}
		if v.WithinWindow(t.Grid.N) {
			lifeMin := float64(v.LifetimeSteps()) * t.Grid.Step.Minutes()
			lifetimes = append(lifetimes, lifeMin)
			if lifeMin < ShortBinMinutes {
				shortLived++
			}
		}
		from, to, ok := v.AliveRange(t.Grid.N)
		if !ok || to-from < minSteps {
			continue
		}
		if tally.N < opts.MaxClassifyPerSub {
			buf = v.Usage.SeriesInto(buf, t.Grid, from, to)
			tally.Count(rules.Classify(buf))
			for i, u := range buf {
				tally.UtilSum += u
				tally.UtilN++
				h := t.Grid.HourOf(from+i) % 24
				tally.Hourly[h] += u
				tally.HourlyN[h]++
			}
		}
	}

	p.Regions = sortedKeys(regionSet)
	p.Services = sortedKeys(serviceSet)
	if len(lifetimes) > 0 {
		p.MedianLifetimeMin = stats.Quantile(lifetimes, 0.5)
		p.ShortLivedShare = float64(shortLived) / float64(len(lifetimes))
	}
	tally.Fill(p)
	if len(p.Regions) > 1 {
		p.RegionAgnosticScore = regionAgnosticScore(t, vms)
	}
	return p, buf
}

func sortedKeys[V any](set map[string]V) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// regionAgnosticScore is RegionAgnosticScore over the subscription's
// regions, each row the top-of-hour samples of its VMs with a day of
// history.
func regionAgnosticScore(t *trace.Trace, vms []*trace.VM) float64 {
	stepsPerHour := t.Grid.StepsPerHour()
	hours := t.Grid.Hours()
	minSteps := MinProfileStepsFor(t.Grid)
	byRegion := make(map[string]*RegionHours)
	for _, v := range vms {
		from, to, ok := v.AliveRange(t.Grid.N)
		if !ok || to-from < minSteps {
			continue
		}
		rh := byRegion[v.Region]
		if rh == nil {
			rh = new(RegionHours)
			byRegion[v.Region] = rh
		}
		for h := 0; h < hours; h++ {
			step := h * stepsPerHour
			if from <= step && step < to {
				rh.Add(h, hours, v.Usage.At(t.Grid, step))
			}
		}
	}
	names := sortedKeys(byRegion)
	rows := make([]*RegionHours, len(names))
	for i, r := range names {
		rows[i] = byRegion[r]
	}
	score, _ := RegionAgnosticScore(rows, nil)
	return score
}
