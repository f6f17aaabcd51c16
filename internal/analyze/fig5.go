package analyze

import (
	"cloudlens/internal/classify"
	"cloudlens/internal/core"
	"cloudlens/internal/trace"
)

// Fig5d reproduces Figure 5(d): the share of each utilization pattern type
// among VMs alive at a weekday time point. The paper's findings: diurnal is
// the most common pattern on both platforms, the private cloud has roughly
// double the public cloud's diurnal share, stable is more common in the
// public cloud, hourly-peak appears almost exclusively in the private
// cloud, and irregular is rare in both.
type Fig5d struct {
	// Share maps each pattern to its fraction among classified VMs.
	Share PerCloud[map[core.Pattern]float64] `json:"share"`
	// Classified counts the VMs with enough history to classify.
	Classified PerCloud[int] `json:"classified"`
	// SnapshotStep is the figure's "particular time".
	SnapshotStep int `json:"snapshotStep"`
}

// minClassifySteps requires one day of history before classification; the
// daily periodicity test is meaningless below that.
const minClassifySteps = 288

// ComputeFig5d classifies every VM alive at the snapshot with at least one
// day of in-window history and tallies the pattern shares.
func ComputeFig5d(t *trace.Trace) Fig5d {
	return computeFacts(t, needPatterns).Fig5d()
}

// ComputeFig5dWith is ComputeFig5d; c is ignored. Bench only; ROADMAP
// 17(f) deletes.
func ComputeFig5dWith(t *trace.Trace, c *trace.SeriesCache) Fig5d {
	return ComputeFig5d(t)
}

// classifiedForShares reports whether Figure 5(d) counts the VM: alive at
// the snapshot, with at least one day of in-window history.
func classifiedForShares(t *trace.Trace, v *trace.VM) bool {
	return v.AliveAt(t.SnapshotStep()) && stepsInWindow(t.Grid, v) >= minClassifySteps
}

// Fig5d tallies the classified patterns of the VMs Figure 5(d) counts.
func (f *SeriesFacts) Fig5d() Fig5d {
	t := f.t
	out := Fig5d{SnapshotStep: t.SnapshotStep()}
	for _, cloud := range core.Clouds() {
		share := map[core.Pattern]float64{}
		n := 0
		for i := range t.VMs {
			if v := &t.VMs[i]; v.Cloud == cloud && classifiedForShares(t, v) {
				share[f.pattern[i]]++
				n++
			}
		}
		for k := range share {
			share[k] /= float64(n)
		}
		out.Share.Set(cloud, share)
		out.Classified.Set(cloud, n)
	}
	return out
}

// PatternSample is one exemplar utilization series, as shown in Figures
// 5(a)-(c).
type PatternSample struct {
	Pattern core.Pattern `json:"pattern"`
	Cloud   core.Cloud   `json:"cloud"`
	VM      core.VMID    `json:"vm"`
	// Series is the utilization fraction over the sample window.
	Series []float64 `json:"series"`
}

// Fig5Samples reproduces Figures 5(a)-(c): one representative series per
// pattern type. Diurnal, stable and irregular samples span the full week;
// the hourly-peak sample spans one day, matching the paper's plots.
type Fig5Samples struct {
	Samples []PatternSample `json:"samples"`
}

// ComputeFig5Samples picks, for each pattern, the first VM of the
// generating platform whose classified pattern matches its generated one.
// The scan stops once every pattern has an exemplar, so it classifies only
// the full-window VMs it passes.
func ComputeFig5Samples(t *trace.Trace) Fig5Samples {
	return fig5Samples(t, nil)
}

// ComputeFig5SamplesWith is ComputeFig5Samples; c is ignored. Bench only;
// ROADMAP 17(f) deletes.
func ComputeFig5SamplesWith(t *trace.Trace, c *trace.SeriesCache) Fig5Samples {
	return ComputeFig5Samples(t)
}

// Fig5Samples is ComputeFig5Samples reading the patterns the facts pass
// recorded.
func (f *SeriesFacts) Fig5Samples() Fig5Samples {
	return fig5Samples(f.t, f.pattern)
}

// fig5Samples scans the VMs in trace order for full-window exemplars whose
// classified pattern is their generated one. A VM's pattern comes from
// recorded when the facts pass classified it (on any grid holding the
// snapshot and a day, every full-window VM) and is classified here
// otherwise. Only the chosen exemplars are materialized again.
func fig5Samples(t *trace.Trace, recorded []core.Pattern) Fig5Samples {
	var out Fig5Samples
	opts := classify.Options{StepsPerHour: t.Grid.StepsPerHour()}
	want := core.Patterns()
	found := make(map[core.Pattern]bool, len(want))
	for i := range t.VMs {
		if len(found) == len(want) {
			break
		}
		v := &t.VMs[i]
		if found[v.Usage.Pattern] || stepsInWindow(t.Grid, v) < t.Grid.N {
			continue // want full-window exemplars
		}
		var p core.Pattern
		if recorded != nil && classifiedForShares(t, v) {
			p = recorded[i]
		} else {
			p = classify.Classify(v.Usage.Series(t.Grid, 0, t.Grid.N), opts).Pattern
		}
		if p != v.Usage.Pattern {
			continue
		}
		found[v.Usage.Pattern] = true
		from, to := 0, t.Grid.N
		if v.Usage.Pattern == core.PatternHourlyPeak {
			// One day, as in Figure 5(c): Tuesday.
			day := t.Grid.StepsPerDay()
			from, to = day, 2*day
		}
		out.Samples = append(out.Samples, PatternSample{
			Pattern: v.Usage.Pattern,
			Cloud:   v.Cloud,
			VM:      v.ID,
			Series:  v.Usage.Series(t.Grid, from, to),
		})
	}
	return out
}
