// Package kb implements the centralized workload knowledge base the paper
// proposes in Section V: a store of per-subscription workload knowledge
// continuously extracted from telemetry signals (CPU utilization, VM
// lifetime, deployment spread) that management policies consume instead of
// raw traces. The paper positions this as "the key pillar of the future
// workload-aware intelligent cloud platform"; the over-subscription, spot,
// and region-balancing policies in this repository all accept knowledge-
// base profiles as input.
package kb

import (
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

// ExtractOptions tunes profile extraction.
type ExtractOptions struct {
	// MaxClassifyPerSub caps how many long-running VMs are classified
	// per subscription (default 24); classification dominates cost.
	MaxClassifyPerSub int
	// ShortBinMinutes is the shortest-lifetime-bin width (default 30).
	ShortBinMinutes int
}

func (o ExtractOptions) withDefaults() ExtractOptions {
	if o.MaxClassifyPerSub == 0 {
		o.MaxClassifyPerSub = 24
	}
	if o.ShortBinMinutes == 0 {
		o.ShortBinMinutes = 30
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

// Extract builds a knowledge base from a trace. Subscriptions are profiled
// independently, so they fan out over the worker pool in sorted (cloud,
// subscription) order; each worker reuses one series scratch buffer across
// its whole chunk of subscriptions, and the finished profiles land in the
// store sequentially. Profiles are identical to a sequential extraction:
// all per-subscription state is worker-local.
func Extract(t *trace.Trace, opts ExtractOptions) *Store {
	opts = opts.withDefaults()
	store := NewStore()
	cl := classifiers{
		family: t.Family,
		cpu:    classify.Options{StepsPerHour: t.Grid.StepsPerHour()},
		inv:    classify.InvocationOptions{StepsPerHour: t.Grid.StepsPerHour()},
	}

	type job struct {
		sub core.SubscriptionID
		vms []*trace.VM
	}
	var jobs []job
	for _, cloud := range core.Clouds() {
		bySub := t.BySubscription(cloud)
		subs := make([]core.SubscriptionID, 0, len(bySub))
		for sub := range bySub {
			subs = append(subs, sub)
		}
		sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
		for _, sub := range subs {
			jobs = append(jobs, job{sub: sub, vms: bySub[sub]})
		}
	}
	profiles := parallel.MapChunk(len(jobs), func(lo, hi int, dst []*Profile) {
		var buf []float64
		for i := lo; i < hi; i++ {
			var p *Profile
			p, buf = extractProfile(t, opts, cl, jobs[i].sub, jobs[i].vms, buf)
			dst[i-lo] = p
		}
	})
	for _, p := range profiles {
		store.Put(p)
	}
	return store
}

// classifiers bundles the per-family classifier options so extraction
// configures them once per trace, not per subscription.
type classifiers struct {
	family core.Family
	cpu    classify.Options
	inv    classify.InvocationOptions
}

// classify routes a series through the trace family's classifier.
func (c classifiers) classify(series []float64) core.Pattern {
	if c.family == core.FamilyServerless {
		return classify.ClassifyInvocation(series, c.inv).Pattern
	}
	return classify.Classify(series, c.cpu).Pattern
}

// extractProfile profiles one subscription. buf is a scratch series buffer
// threaded through consecutive calls on the same worker; the (possibly
// grown) buffer is returned for reuse.
func extractProfile(t *trace.Trace, opts ExtractOptions, cl classifiers,
	sub core.SubscriptionID, vms []*trace.VM, buf []float64) (*Profile, []float64) {
	snap := t.SnapshotStep()
	minSteps := MinProfileStepsFor(t.Grid)
	p := &Profile{
		Subscription:        sub,
		Cloud:               vms[0].Cloud,
		Family:              t.Family,
		VMsObserved:         len(vms),
		PatternShares:       make(map[core.Pattern]float64),
		RegionAgnosticScore: -1,
		PeakHourUTC:         -1,
	}
	regionSet := make(map[string]bool)
	serviceSet := make(map[string]bool)
	var lifetimes []float64
	shortLived := 0
	classified := 0
	var utilSum float64
	var utilN int
	hourly := make([]float64, 24)
	hourlyN := make([]float64, 24)

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
			if lifeMin < float64(opts.ShortBinMinutes) {
				shortLived++
			}
		}
		from, to, ok := v.AliveRange(t.Grid.N)
		if !ok || to-from < minSteps {
			continue
		}
		if classified < opts.MaxClassifyPerSub {
			buf = v.Usage.SeriesInto(buf, t.Grid, from, to)
			p.PatternShares[cl.classify(buf)]++
			classified++
			for i, u := range buf {
				utilSum += u
				utilN++
				h := t.Grid.HourOf(from+i) % 24
				hourly[h] += u
				hourlyN[h]++
			}
		}
	}

	p.Regions = sortedKeys(regionSet)
	p.Services = sortedKeys(serviceSet)
	if len(lifetimes) > 0 {
		p.MedianLifetimeMin = stats.Quantile(lifetimes, 0.5)
		p.ShortLivedShare = float64(shortLived) / float64(len(lifetimes))
	}
	if classified > 0 {
		for k := range p.PatternShares {
			p.PatternShares[k] /= float64(classified)
		}
		// Ties resolve in the family's fixed pattern order so extraction is
		// deterministic (map iteration order is not) and the streaming
		// pipeline's fold converges to the same dominant pattern.
		best := core.PatternUnknown
		for _, k := range t.Family.Patterns() {
			if share, ok := p.PatternShares[k]; ok {
				if best == core.PatternUnknown || share > p.PatternShares[best] {
					best = k
				}
			}
		}
		p.DominantPattern = best
	}
	if utilN > 0 {
		p.MeanUtilization = utilSum / float64(utilN)
		peak := 0
		for h := 1; h < 24; h++ {
			if mean(hourly[h], hourlyN[h]) > mean(hourly[peak], hourlyN[peak]) {
				peak = h
			}
		}
		p.PeakHourUTC = peak
	}
	if len(p.Regions) > 1 {
		p.RegionAgnosticScore = regionAgnosticScore(t, vms)
	}
	return p, buf
}

func mean(sum, n float64) float64 {
	if n == 0 {
		return 0
	}
	return sum / n
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// regionAgnosticScore computes the mean pairwise Pearson correlation of the
// subscription's region-averaged hourly utilization, across all its
// deployment regions.
func regionAgnosticScore(t *trace.Trace, vms []*trace.VM) float64 {
	stepsPerHour := t.Grid.StepsPerHour()
	hours := t.Grid.Hours()
	minSteps := MinProfileStepsFor(t.Grid)
	perRegion := make(map[string][]float64)
	perRegionN := make(map[string][]float64)
	for _, v := range vms {
		from, to, ok := v.AliveRange(t.Grid.N)
		if !ok || to-from < minSteps {
			continue
		}
		series := perRegion[v.Region]
		counts := perRegionN[v.Region]
		if series == nil {
			series = make([]float64, hours)
			counts = make([]float64, hours)
			perRegion[v.Region] = series
			perRegionN[v.Region] = counts
		}
		for h := 0; h < hours; h++ {
			step := h * stepsPerHour
			if from <= step && step < to {
				series[h] += v.Usage.At(t.Grid, step)
				counts[h]++
			}
		}
	}
	if len(perRegion) < 2 {
		return -1
	}
	regions := make([]string, 0, len(perRegion))
	for r := range perRegion {
		avg := perRegion[r]
		for h := range avg {
			if perRegionN[r][h] > 0 {
				avg[h] /= perRegionN[r][h]
			}
		}
		regions = append(regions, r)
	}
	sort.Strings(regions)
	var sum float64
	var n int
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			sum += stats.Pearson(perRegion[regions[i]], perRegion[regions[j]])
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}
