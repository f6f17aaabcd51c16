package analyze

import (
	"fmt"

	"cloudlens/internal/core"
	"cloudlens/internal/trace"
)

// Insight is one of the paper's four boxed insights, evaluated against a
// trace: the statement, the quantitative evidence behind it, and whether
// the trace supports it. Downstream systems (and the report tool) consume
// these instead of re-deriving the comparisons from raw figures.
type Insight struct {
	// ID is the paper's insight number (1-4).
	ID int `json:"id"`
	// Title is a short name.
	Title string `json:"title"`
	// Statement paraphrases the paper's boxed text.
	Statement string `json:"statement"`
	// Holds reports whether the trace supports the insight.
	Holds bool `json:"holds"`
	// Evidence maps named measurements to their values.
	Evidence map[string]float64 `json:"evidence"`
	// Detail explains the verdict in one sentence.
	Detail string `json:"detail"`
}

// ComputeInsights evaluates all four insights. It runs the figure analyses
// it needs, with one facts pass for Figures 5(d), 7(a) and 7(b); callers
// holding a full Characterization can use InsightsFrom instead to avoid
// recomputation.
func ComputeInsights(t *trace.Trace) []Insight {
	f := computeFacts(t, needPatterns|needCorr|needTops)
	return InsightsFrom(
		ComputeFig1a(t), ComputeFig1b(t), ComputeFig2(t),
		ComputeFig3d(t), f.Fig5d(), f.Fig7a(), f.Fig7b(),
	)
}

// InsightsFrom evaluates the four insights from precomputed figure results.
func InsightsFrom(f1a Fig1a, f1b Fig1b, f2 Fig2, f3d Fig3d, f5d Fig5d, f7a Fig7a, f7b Fig7b) []Insight {
	out := make([]Insight, 0, 4)

	// Insight 1: private deployments are larger; public clusters are more
	// diverse in subscriptions and VM sizes.
	i1 := Insight{
		ID:    1,
		Title: "deployment homogeneity",
		Statement: "Private cloud workloads are deployed in larger groups, while public " +
			"cloud clusters host more subscriptions and a wider range of VM sizes.",
		Evidence: map[string]float64{
			"privateMedianVMsPerSub":  f1a.MedianVMsPerSub.Private,
			"publicMedianVMsPerSub":   f1a.MedianVMsPerSub.Public,
			"subsPerClusterRatio":     f1b.MedianRatio,
			"privateExtremeSizeShare": f2.ExtremeShare.Private,
			"publicExtremeSizeShare":  f2.ExtremeShare.Public,
			"privateDistinctSizes":    float64(f2.DistinctSizes.Private),
			"publicDistinctSizes":     float64(f2.DistinctSizes.Public),
		},
	}
	i1.Holds = f1a.MedianVMsPerSub.Private > 2*f1a.MedianVMsPerSub.Public &&
		f1b.MedianRatio > 2 &&
		f2.ExtremeShare.Public > f2.ExtremeShare.Private
	i1.Detail = fmt.Sprintf("median deployment %0.f vs %0.f VMs; %.1fx subscriptions per cluster",
		f1a.MedianVMsPerSub.Private, f1a.MedianVMsPerSub.Public, f1b.MedianRatio)
	out = append(out, i1)

	// Insight 2: private temporal deployment = low amplitude + bursts;
	// public = regular diurnal.
	i2 := Insight{
		ID:    2,
		Title: "temporal deployment",
		Statement: "Private deployments are mostly low-amplitude with occasional bursts; " +
			"public deployments follow prominent, regular diurnal patterns.",
		Evidence: map[string]float64{
			"privateMedianCreationCV": f3d.Box.Private.Median,
			"publicMedianCreationCV":  f3d.Box.Public.Median,
		},
	}
	i2.Holds = f3d.Box.Private.Median > f3d.Box.Public.Median
	i2.Detail = fmt.Sprintf("hourly-creation CV across regions: %.2f vs %.2f",
		f3d.Box.Private.Median, f3d.Box.Public.Median)
	out = append(out, i2)

	// Insight 3: utilization patterns vary; the mix differs by platform.
	i3 := Insight{
		ID:    3,
		Title: "utilization patterns",
		Statement: "Utilization patterns vary significantly across workloads; correct " +
			"characterization (diurnal/stable/irregular/hourly-peak) picks the right management strategy.",
		Evidence: map[string]float64{
			"privateDiurnalShare":    f5d.Share.Private[core.PatternDiurnal],
			"publicDiurnalShare":     f5d.Share.Public[core.PatternDiurnal],
			"privateStableShare":     f5d.Share.Private[core.PatternStable],
			"publicStableShare":      f5d.Share.Public[core.PatternStable],
			"privateHourlyPeakShare": f5d.Share.Private[core.PatternHourlyPeak],
			"publicHourlyPeakShare":  f5d.Share.Public[core.PatternHourlyPeak],
		},
	}
	i3.Holds = f5d.Share.Private[core.PatternDiurnal] > f5d.Share.Public[core.PatternDiurnal] &&
		f5d.Share.Public[core.PatternStable] > f5d.Share.Private[core.PatternStable] &&
		f5d.Share.Private[core.PatternHourlyPeak] > f5d.Share.Public[core.PatternHourlyPeak]
	i3.Detail = fmt.Sprintf("diurnal %.0f%%/%.0f%%, stable %.0f%%/%.0f%%, hourly-peak %.0f%%/%.0f%% (private/public)",
		100*f5d.Share.Private[core.PatternDiurnal], 100*f5d.Share.Public[core.PatternDiurnal],
		100*f5d.Share.Private[core.PatternStable], 100*f5d.Share.Public[core.PatternStable],
		100*f5d.Share.Private[core.PatternHourlyPeak], 100*f5d.Share.Public[core.PatternHourlyPeak])
	out = append(out, i3)

	// Insight 4: private node-level similarity + region-agnosticism.
	i4 := Insight{
		ID:    4,
		Title: "similarity structure",
		Statement: "Utilization patterns within a node are more similar in the private cloud, " +
			"and many private subscriptions behave identically across regions (region-agnostic).",
		Evidence: map[string]float64{
			"privateNodeCorrMedian":   f7a.MedianCorrelation.Private,
			"publicNodeCorrMedian":    f7a.MedianCorrelation.Public,
			"privateRegionCorrMedian": f7b.MedianCorrelation.Private,
			"publicRegionCorrMedian":  f7b.MedianCorrelation.Public,
		},
	}
	i4.Holds = f7a.MedianCorrelation.Private > f7a.MedianCorrelation.Public+0.2 &&
		f7b.MedianCorrelation.Private > f7b.MedianCorrelation.Public+0.2
	i4.Detail = fmt.Sprintf("VM-node correlation %.2f vs %.2f; cross-region correlation %.2f vs %.2f",
		f7a.MedianCorrelation.Private, f7a.MedianCorrelation.Public,
		f7b.MedianCorrelation.Private, f7b.MedianCorrelation.Public)
	out = append(out, i4)
	return out
}
