package analyze

import (
	"testing"

	"cloudlens/internal/classify"
	"cloudlens/internal/core"
	"cloudlens/internal/stats"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// TestSeriesFactsMatchUsageModels holds every fact the pass records to its
// definition, evaluated straight from the usage models and the trace's own
// node series: probe means and top-of-hour values from Usage.At, patterns
// from classifying Usage.Series, and correlations against
// Trace.NodeSeries. Each must be equal to the bit.
func TestSeriesFactsMatchUsageModels(t *testing.T) {
	cfg := workload.DefaultConfig(3)
	cfg.Scale = 0.1
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	f := ComputeSeriesFacts(tr)
	g := tr.Grid
	sph := g.StepsPerHour()
	offsets := hourSampleOffsets(sph)
	us := usRegions(tr)
	var classified, probes, tops int
	for i := range tr.VMs {
		v := &tr.VMs[i]
		from, to, ok := v.AliveRange(g.N)
		lo, hi := aliveHours(tr, v)
		if n := int(f.probeOff[i+1] - f.probeOff[i]); n != hi-lo {
			t.Fatalf("vm %d: %d probe means, want %d", v.ID, n, hi-lo)
		}
		for h := lo; h < hi; h++ {
			step := h * sph
			want := (v.Usage.At(g, step+offsets[0]) + v.Usage.At(g, step+offsets[1])) / 2
			if got := f.probes[int(f.probeOff[i])+h-lo]; got != want {
				t.Fatalf("vm %d hour %d: probe mean %v, want %v", v.ID, h, got, want)
			}
			probes++
		}
		wantTops := 0
		if crossRegionVM(tr, us, v) {
			wantTops = hi - lo
		}
		if n := int(f.topOff[i+1] - f.topOff[i]); n != wantTops {
			t.Fatalf("vm %d: %d top-of-hour values, want %d", v.ID, n, wantTops)
		}
		for k := 0; k < wantTops; k++ {
			if got, want := f.tops[int(f.topOff[i])+k], v.Usage.At(g, (lo+k)*sph); got != want {
				t.Fatalf("vm %d hour %d: top-of-hour %v, want %v", v.ID, lo+k, got, want)
			}
			tops++
		}
		if ok && classifiedForShares(tr, v) {
			want := classify.Classify(v.Usage.Series(g, from, to), classify.Options{StepsPerHour: sph}).Pattern
			if f.pattern[i] != want {
				t.Fatalf("vm %d: pattern %v, want %v", v.ID, f.pattern[i], want)
			}
			classified++
		}
	}
	correlated := 0
	for _, cloud := range core.Clouds() {
		for _, vms := range nodeGroups(tr, cloud) {
			onNode := make([]*trace.VM, len(vms))
			for k, i := range vms {
				onNode[k] = &tr.VMs[i]
			}
			node := tr.NodeSeries(onNode, 0, g.N)
			for k, i := range vms {
				v := onNode[k]
				from, to, ok := v.AliveRange(g.N)
				eligible := len(vms) >= 2 && ok && to-from >= minCorrOverlapSteps
				if f.hasCorr[i] != eligible {
					t.Fatalf("vm %d: correlated %v, want %v", v.ID, f.hasCorr[i], eligible)
				}
				if !eligible {
					continue
				}
				if want := stats.Pearson(v.Usage.Series(g, from, to), node[from:to]); f.corr[i] != want {
					t.Fatalf("vm %d: node correlation %v, want %v", v.ID, f.corr[i], want)
				}
				correlated++
			}
		}
	}
	if classified == 0 || probes == 0 || tops == 0 || correlated == 0 {
		t.Fatalf("checked %d patterns, %d probe means, %d top-of-hour values, %d correlations; want all > 0",
			classified, probes, tops, correlated)
	}
}
