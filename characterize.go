package cloudlens

import (
	"fmt"
	"io"

	"cloudlens/internal/analyze"
	"cloudlens/internal/core"
	"cloudlens/internal/parallel"
	"cloudlens/internal/report"
)

// Figure result types, aliased for users of the public API.
type (
	Fig1a       = analyze.Fig1a
	Fig1b       = analyze.Fig1b
	Fig2        = analyze.Fig2
	Fig3a       = analyze.Fig3a
	Fig3b       = analyze.Fig3b
	Fig3c       = analyze.Fig3c
	Fig3d       = analyze.Fig3d
	Fig4a       = analyze.Fig4a
	Fig4b       = analyze.Fig4b
	Fig5Samples = analyze.Fig5Samples
	Fig5d       = analyze.Fig5d
	Fig6Weekly  = analyze.Fig6Weekly
	Fig6Daily   = analyze.Fig6Daily
	Fig7a       = analyze.Fig7a
	Fig7b       = analyze.Fig7b
	Fig7c       = analyze.Fig7c
	// Band is a set of utilization percentile curves (Figure 6).
	Band = analyze.Band
)

// sparkWidth is the report's sparkline width in characters; long series are
// block-averaged down to it.
const sparkWidth = 84

// Insight is one of the paper's four boxed insights evaluated on a trace.
type Insight = analyze.Insight

// Insights evaluates the paper's four insights from an existing
// characterization.
func (c *Characterization) Insights() []Insight {
	return analyze.InsightsFrom(c.Fig1a, c.Fig1b, c.Fig2, c.Fig3d, c.Fig5d, c.Fig7a, c.Fig7b)
}

// Characterization bundles every figure of the paper's evaluation, computed
// over one trace.
type Characterization struct {
	Fig1a       Fig1a       `json:"fig1a"`
	Fig1b       Fig1b       `json:"fig1b"`
	Fig2        Fig2        `json:"fig2"`
	Fig3a       Fig3a       `json:"fig3a"`
	Fig3b       Fig3b       `json:"fig3b"`
	Fig3c       Fig3c       `json:"fig3c"`
	Fig3d       Fig3d       `json:"fig3d"`
	Fig4a       Fig4a       `json:"fig4a"`
	Fig4b       Fig4b       `json:"fig4b"`
	Fig5Samples Fig5Samples `json:"fig5Samples"`
	Fig5d       Fig5d       `json:"fig5d"`
	Fig6Weekly  Fig6Weekly  `json:"fig6Weekly"`
	Fig6Daily   Fig6Daily   `json:"fig6Daily"`
	Fig7a       Fig7a       `json:"fig7a"`
	Fig7b       Fig7b       `json:"fig7b"`
	Fig7c       Fig7c       `json:"fig7c"`
}

// Characterize runs the complete per-figure analysis pipeline over a trace.
//
// The figures are independent of each other, so they run concurrently on
// the worker pool, every heavy analysis additionally fanning its inner loops
// out over the same pool. Figures 5-7(b) read VM utilization series: one
// facts pass (analyze.SeriesFacts) runs beside Figures 1-4 and 7(c),
// materializes each VM's series once into a per-worker buffer and keeps
// only the few values per VM or per VM-hour those figures aggregate, so no
// VM's whole-week series outlives its visit. The aggregations then run
// concurrently. Results are bit-identical to computing each figure alone:
// each figure writes only its own struct field, and every aggregation adds
// its floats in the figure's own order.
func Characterize(t *Trace) *Characterization {
	// Figures 3(b) and 3(c) both default to the paper's sampled region;
	// resolve it once instead of twice.
	region := analyze.SampleRegion(t)
	var c Characterization
	var facts *analyze.SeriesFacts
	parallel.Do(
		func() { facts = analyze.ComputeSeriesFacts(t) },
		func() { c.Fig1a = analyze.ComputeFig1a(t) },
		func() { c.Fig1b = analyze.ComputeFig1b(t) },
		func() { c.Fig2 = analyze.ComputeFig2(t) },
		func() { c.Fig3a = analyze.ComputeFig3a(t) },
		func() { c.Fig3b = analyze.ComputeFig3b(t, region) },
		func() { c.Fig3c = analyze.ComputeFig3c(t, region) },
		func() { c.Fig3d = analyze.ComputeFig3d(t) },
		func() { c.Fig4a = analyze.ComputeFig4a(t) },
		func() { c.Fig4b = analyze.ComputeFig4b(t) },
		func() { c.Fig7c = analyze.ComputeFig7c(t, "") },
	)
	parallel.Do(
		func() { c.Fig5Samples = facts.Fig5Samples() },
		func() { c.Fig5d = facts.Fig5d() },
		func() { c.Fig6Weekly = facts.Fig6Weekly() },
		func() { c.Fig6Daily = facts.Fig6Daily() },
		func() { c.Fig7a = facts.Fig7a() },
		func() { c.Fig7b = facts.Fig7b() },
	)
	return &c
}

// WriteReport renders the full figure-by-figure reproduction report as
// plain text, with the paper's reference values alongside the measured
// ones, closing with the paper's four insights.
func (c *Characterization) WriteReport(w io.Writer) error {
	if err := c.writeDeployment(w); err != nil {
		return err
	}
	if err := c.writeUtilization(w); err != nil {
		return err
	}
	if err := c.writeSimilarity(w); err != nil {
		return err
	}
	return c.writeInsights(w)
}

func (c *Characterization) writeInsights(w io.Writer) error {
	if err := report.Section(w, "The paper's four insights"); err != nil {
		return err
	}
	for _, in := range c.Insights() {
		verdict := "HOLDS"
		if !in.Holds {
			verdict = "DOES NOT HOLD"
		}
		fmt.Fprintf(w, "\nInsight %d (%s): %s\n  %s — %s\n",
			in.ID, in.Title, in.Statement, verdict, in.Detail)
	}
	return nil
}

func (c *Characterization) writeDeployment(w io.Writer) error {
	if err := report.Section(w, "Figure 1 — deployment size"); err != nil {
		return err
	}
	t := report.NewTable("metric", "private", "public", "paper")
	t.AddRowf("median VMs per subscription",
		c.Fig1a.MedianVMsPerSub.Private, c.Fig1a.MedianVMsPerSub.Public,
		"private larger")
	t.AddRowf("subscriptions observed",
		c.Fig1a.Subscriptions.Private, c.Fig1a.Subscriptions.Public, "-")
	t.AddRowf("median subscriptions per cluster",
		c.Fig1b.Box.Private.Median, c.Fig1b.Box.Public.Median,
		fmt.Sprintf("~20x ratio (measured %.1fx)", c.Fig1b.MedianRatio))
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nVMs/subscription CDF (private):  %v\n",
		report.CDFRows(c.Fig1a.CDF.Private, 0.25, 0.5, 0.75, 0.95))
	fmt.Fprintf(w, "VMs/subscription CDF (public):   %v\n",
		report.CDFRows(c.Fig1a.CDF.Public, 0.25, 0.5, 0.75, 0.95))

	if err := report.Section(w, "Figure 2 — VM sizes (cores x memory heatmap)"); err != nil {
		return err
	}
	for _, cloud := range core.Clouds() {
		fmt.Fprintf(w, "\n%s cloud (rows: memory high→low, cols: cores low→high), extreme-size share %s:\n%s",
			cloud, report.Pct(c.Fig2.ExtremeShare.Get(cloud)),
			report.Heatmap(c.Fig2.Heat.Get(cloud).Normalized()))
	}

	if err := report.Section(w, "Figure 3 — temporal deployment"); err != nil {
		return err
	}
	t = report.NewTable("metric", "private", "public", "paper")
	t.AddRowf("shortest-bin lifetime share",
		c.Fig3a.ShortestBinShare.Private, c.Fig3a.ShortestBinShare.Public, "0.49 / 0.81")
	t.AddRowf("median lifetime (min)",
		c.Fig3a.MedianLifetimeMin.Private, c.Fig3a.MedianLifetimeMin.Public, "private longer")
	t.AddRowf("count spike ratio (max/median)",
		c.Fig3b.SpikeRatio.Private, c.Fig3b.SpikeRatio.Public, "private spiky")
	t.AddRowf("creation CV at "+c.Fig3c.Region,
		c.Fig3c.CV.Private, c.Fig3c.CV.Public, "private larger")
	t.AddRowf("creation CV across regions (median)",
		c.Fig3d.Box.Private.Median, c.Fig3d.Box.Public.Median, "private larger")
	if err := t.Render(w); err != nil {
		return err
	}
	buf := make([]float64, sparkWidth)
	fmt.Fprintf(w, "\nhourly VM counts, %s (private): %s\n", c.Fig3b.Region,
		report.Sparkline(report.DownsampleInto(buf, c.Fig3b.Counts.Private, sparkWidth)))
	fmt.Fprintf(w, "hourly VM counts, %s (public):  %s\n", c.Fig3b.Region,
		report.Sparkline(report.DownsampleInto(buf, c.Fig3b.Counts.Public, sparkWidth)))
	fmt.Fprintf(w, "hourly creations, %s (private): %s\n", c.Fig3c.Region,
		report.Sparkline(report.DownsampleInto(buf, c.Fig3c.Creations.Private, sparkWidth)))
	fmt.Fprintf(w, "hourly creations, %s (public):  %s\n", c.Fig3c.Region,
		report.Sparkline(report.DownsampleInto(buf, c.Fig3c.Creations.Public, sparkWidth)))

	if err := report.Section(w, "Figure 4 — spatial deployment"); err != nil {
		return err
	}
	t = report.NewTable("metric", "private", "public", "paper")
	t.AddRowf("single-region subscription share",
		c.Fig4a.SingleRegionShare.Private, c.Fig4a.SingleRegionShare.Public, ">0.5 both")
	t.AddRowf("mean regions per subscription",
		c.Fig4a.MeanRegions.Private, c.Fig4a.MeanRegions.Public, "private larger")
	t.AddRowf("single-region core share",
		c.Fig4b.SingleRegionCoreShare.Private, c.Fig4b.SingleRegionCoreShare.Public, "~0.40 / ~0.70")
	return t.Render(w)
}

func (c *Characterization) writeUtilization(w io.Writer) error {
	if err := report.Section(w, "Figure 5 — utilization patterns"); err != nil {
		return err
	}
	t := report.NewTable("pattern", "private share", "public share", "paper")
	notes := map[core.Pattern]string{
		core.PatternDiurnal:    "most common; private ~2x public",
		core.PatternStable:     "higher in public",
		core.PatternIrregular:  "rare in both",
		core.PatternHourlyPeak: "mostly private",
	}
	for _, p := range core.Patterns() {
		t.AddRowf(p.String(),
			c.Fig5d.Share.Private[p], c.Fig5d.Share.Public[p], notes[p])
	}
	if err := t.Render(w); err != nil {
		return err
	}
	buf := make([]float64, sparkWidth)
	fmt.Fprintln(w, "\npattern exemplars (Figures 5a-5c):")
	for _, s := range c.Fig5Samples.Samples {
		fmt.Fprintf(w, "  %-12s vm=%-6d %s\n", s.Pattern, s.VM,
			report.Sparkline(report.DownsampleInto(buf, s.Series, sparkWidth)))
	}

	if err := report.Section(w, "Figure 6 — utilization distribution over time"); err != nil {
		return err
	}
	t = report.NewTable("metric", "private", "public", "paper")
	t.AddRowf("max p75 over the week",
		c.Fig6Weekly.MaxP75.Private, c.Fig6Weekly.MaxP75.Public, "<0.30 both")
	t.AddRowf("weekend dip of median utilization",
		c.Fig6Weekly.WeekendDip.Private, c.Fig6Weekly.WeekendDip.Public, "private dips")
	t.AddRowf("daily swing of median utilization",
		c.Fig6Daily.DailySwing.Private, c.Fig6Daily.DailySwing.Public, "private working-hours; public ~flat")
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nweekly p50 (private): %s\n",
		report.Sparkline(report.DownsampleInto(buf, c.Fig6Weekly.Bands.Private.P50, sparkWidth)))
	fmt.Fprintf(w, "weekly p50 (public):  %s\n",
		report.Sparkline(report.DownsampleInto(buf, c.Fig6Weekly.Bands.Public.P50, sparkWidth)))
	fmt.Fprintf(w, "daily p50 (private):  %s\n",
		report.Sparkline(c.Fig6Daily.Bands.Private.P50))
	fmt.Fprintf(w, "daily p50 (public):   %s\n",
		report.Sparkline(c.Fig6Daily.Bands.Public.P50))
	return nil
}

func (c *Characterization) writeSimilarity(w io.Writer) error {
	if err := report.Section(w, "Figure 7 — similarity structure"); err != nil {
		return err
	}
	t := report.NewTable("metric", "private", "public", "paper")
	t.AddRowf("median VM-node utilization correlation",
		c.Fig7a.MedianCorrelation.Private, c.Fig7a.MedianCorrelation.Public, "0.55 / 0.02")
	t.AddRowf("median cross-region correlation",
		c.Fig7b.MedianCorrelation.Private, c.Fig7b.MedianCorrelation.Public, "private higher")
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nServiceX daily utilization by region (Figure 7c), peak spread %d min:\n",
		c.Fig7c.PeakStepSpreadMin)
	buf := make([]float64, sparkWidth)
	for _, region := range c.Fig7c.Regions {
		fmt.Fprintf(w, "  %-12s %s\n", region,
			report.Sparkline(report.DownsampleInto(buf, c.Fig7c.Series[region], sparkWidth)))
	}
	return nil
}
