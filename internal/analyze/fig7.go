package analyze

import (
	"sort"

	"cloudlens/internal/core"
	"cloudlens/internal/parallel"
	"cloudlens/internal/stats"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// Fig7a reproduces Figure 7(a): CDFs of the Pearson correlation between
// each VM's CPU utilization and its host node's. The paper reports medians
// of ~0.55 (private) vs ~0.02 (public): private nodes host VMs with similar
// utilization patterns; public nodes mix independent tenants. Nodes hosting
// a single VM are excluded, as in the paper.
type Fig7a struct {
	CDF PerCloud[*stats.ECDF] `json:"-"`
	// MedianCorrelation is the per-platform median VM-to-node Pearson r.
	MedianCorrelation PerCloud[float64] `json:"medianCorrelation"`
	// VMs counts the correlated VM samples.
	VMs PerCloud[int] `json:"vms"`
}

// ComputeFig7a runs the Figure 7(a) analysis. For every node with at least
// two VMs it materializes the node's core-weighted utilization series and
// correlates each hosted VM (with at least a day of overlap) against it.
func ComputeFig7a(t *trace.Trace) Fig7a {
	return computeFacts(t, needCorr).Fig7a()
}

// ComputeFig7aWith is ComputeFig7a; c is ignored. Bench only; ROADMAP
// 17(f) deletes.
func ComputeFig7aWith(t *trace.Trace, c *trace.SeriesCache) Fig7a {
	return ComputeFig7a(t)
}

// Fig7a gathers the VM-to-node correlations in trace order. The ECDF and
// the quantile sort them, so the gather order is free.
func (f *SeriesFacts) Fig7a() Fig7a {
	var out Fig7a
	for _, cloud := range core.Clouds() {
		var sample []float64
		for i := range f.t.VMs {
			if f.hasCorr[i] && f.t.VMs[i].Cloud == cloud {
				sample = append(sample, f.corr[i])
			}
		}
		out.CDF.Set(cloud, stats.NewECDF(sample))
		out.MedianCorrelation.Set(cloud, stats.Quantile(sample, 0.5))
		out.VMs.Set(cloud, len(sample))
	}
	return out
}

// Fig7b reproduces Figure 7(b): for each subscription deployed in multiple
// US regions, the Pearson correlation of its region-averaged utilization
// between every pair of deployed US regions. Private subscriptions
// correlate strongly across regions (region-agnostic candidates); public
// ones do not.
type Fig7b struct {
	CDF PerCloud[*stats.ECDF] `json:"-"`
	// MedianCorrelation is the median region-pair correlation.
	MedianCorrelation PerCloud[float64] `json:"medianCorrelation"`
	// Pairs counts the correlated region pairs.
	Pairs PerCloud[int] `json:"pairs"`
}

// ComputeFig7b runs the Figure 7(b) analysis at hourly resolution.
func ComputeFig7b(t *trace.Trace) Fig7b {
	return computeFacts(t, needTops).Fig7b()
}

// ComputeFig7bWith is ComputeFig7b; c is ignored. Bench only; ROADMAP
// 17(f) deletes.
func ComputeFig7bWith(t *trace.Trace, c *trace.SeriesCache) Fig7b {
	return ComputeFig7b(t)
}

// crossRegionVM reports whether Figure 7(b) averages the VM into its
// region's curve: deployed in a US region, with a day of history.
func crossRegionVM(t *trace.Trace, us map[string]bool, v *trace.VM) bool {
	return us[v.Region] && stepsInWindow(t.Grid, v) >= minCorrOverlapSteps
}

// Fig7b builds each subscription's region-averaged hourly curves from the
// top-of-hour facts. Subscriptions are independent, so they fan out over
// the worker pool in sorted-ID order; each sums its VMs in trace order and
// yields its own slice of region-pair correlations, concatenated in
// subscription order.
func (f *SeriesFacts) Fig7b() Fig7b {
	t := f.t
	var out Fig7b
	us := usRegions(t)
	hours := t.Grid.Hours()
	for _, cloud := range core.Clouds() {
		bySub := make(map[core.SubscriptionID][]int)
		for i := range t.VMs {
			if v := &t.VMs[i]; v.Cloud == cloud && crossRegionVM(t, us, v) {
				bySub[v.Subscription] = append(bySub[v.Subscription], i)
			}
		}
		subs := make([]core.SubscriptionID, 0, len(bySub))
		for s := range bySub {
			subs = append(subs, s)
		}
		sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
		perSub := parallel.Map(len(subs), func(si int) []float64 {
			// Region-averaged hourly utilization, US regions only.
			perRegion := make(map[string][]float64)
			perRegionCores := make(map[string][]float64)
			for _, i := range bySub[subs[si]] {
				v := &t.VMs[i]
				series := perRegion[v.Region]
				coresAt := perRegionCores[v.Region]
				if series == nil {
					series = make([]float64, hours)
					coresAt = make([]float64, hours)
					perRegion[v.Region] = series
					perRegionCores[v.Region] = coresAt
				}
				w := float64(v.Size.Cores)
				lo, _ := aliveHours(t, v)
				for k, u := range f.tops[f.topOff[i]:f.topOff[i+1]] {
					series[lo+k] += u * w
					coresAt[lo+k] += w
				}
			}
			if len(perRegion) < 2 {
				return nil
			}
			regions := make([]string, 0, len(perRegion))
			for r := range perRegion {
				avg := perRegion[r]
				cores := perRegionCores[r]
				for h := range avg {
					if cores[h] > 0 {
						avg[h] /= cores[h]
					}
				}
				regions = append(regions, r)
			}
			sort.Strings(regions)
			var corrs []float64
			for i := 0; i < len(regions); i++ {
				for j := i + 1; j < len(regions); j++ {
					corrs = append(corrs,
						stats.Pearson(perRegion[regions[i]], perRegion[regions[j]]))
				}
			}
			return corrs
		})
		var sample []float64
		for _, corrs := range perSub {
			sample = append(sample, corrs...)
		}
		out.CDF.Set(cloud, stats.NewECDF(sample))
		out.MedianCorrelation.Set(cloud, stats.Quantile(sample, 0.5))
		out.Pairs.Set(cloud, len(sample))
	}
	return out
}

// Fig7c reproduces Figure 7(c): ServiceX's average CPU utilization per
// deployed region over one day. Although the regions sit in different time
// zones, the peaks align — the signature of a geo-load-balanced,
// region-agnostic service.
type Fig7c struct {
	Service string `json:"service"`
	// Day is the day index plotted (0 = Monday).
	Day int `json:"day"`
	// Regions lists the deployed regions in plot order.
	Regions []string `json:"regions"`
	// Series maps region to its average utilization over the day.
	Series map[string][]float64 `json:"series"`
	// PeakStepSpreadMin is the spread, in minutes, between the earliest
	// and latest region's daily peak: near zero for a region-agnostic
	// service, hours for a region-sensitive one.
	PeakStepSpreadMin int `json:"peakStepSpreadMin"`
}

// ComputeFig7c runs the Figure 7(c) analysis for the given service name
// ("" selects the built-in ServiceX) on Tuesday. It reads one day of the
// service's usage models directly, computing each region's average curve on
// its own worker. Regions are summed in VM slice order and steps ascending,
// so each curve is bit-identical to a sequential sweep.
func ComputeFig7c(t *trace.Trace, service string) Fig7c {
	if service == "" {
		service = workload.ServiceXName
	}
	out := Fig7c{Service: service, Day: 1, Series: make(map[string][]float64)}
	stepsPerDay := t.Grid.StepsPerDay()
	from := out.Day * stepsPerDay
	to := from + stepsPerDay

	byRegion := make(map[string][]*trace.VM)
	for i := range t.VMs {
		v := &t.VMs[i]
		if v.Service == service {
			byRegion[v.Region] = append(byRegion[v.Region], v)
		}
	}
	regions := make([]string, 0, len(byRegion))
	for r := range byRegion {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	type regionCurve struct {
		series []float64
		peak   int
	}
	curves := parallel.Map(len(regions), func(ri int) regionCurve {
		spans := spansOf(t, byRegion[regions[ri]])
		series := make([]float64, to-from)
		for s := from; s < to; s++ {
			var sum float64
			var n int
			for i := range spans {
				sp := &spans[i]
				if sp.from <= s && s < sp.to {
					sum += sp.vm.Usage.At(t.Grid, s)
					n++
				}
			}
			if n > 0 {
				series[s-from] = sum / float64(n)
			}
		}
		peak := 0
		for s, v := range series {
			if v > series[peak] {
				peak = s
			}
		}
		return regionCurve{series: series, peak: peak}
	})
	var peakSteps []int
	for ri, region := range regions {
		out.Series[region] = curves[ri].series
		peakSteps = append(peakSteps, curves[ri].peak)
	}
	out.Regions = regions
	if len(peakSteps) > 1 {
		minP, maxP := peakSteps[0], peakSteps[0]
		for _, p := range peakSteps[1:] {
			if p < minP {
				minP = p
			}
			if p > maxP {
				maxP = p
			}
		}
		out.PeakStepSpreadMin = int(float64(maxP-minP) * t.Grid.Step.Minutes())
	}
	return out
}

// ComputeFig7cWith is ComputeFig7c; c is ignored. Bench only; ROADMAP
// 17(f) deletes.
func ComputeFig7cWith(t *trace.Trace, c *trace.SeriesCache, service string) Fig7c {
	return ComputeFig7c(t, service)
}
