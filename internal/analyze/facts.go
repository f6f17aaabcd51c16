package analyze

import (
	"sort"

	"cloudlens/internal/classify"
	"cloudlens/internal/core"
	"cloudlens/internal/parallel"
	"cloudlens/internal/sim"
	"cloudlens/internal/stats"
	"cloudlens/internal/trace"
)

// need selects the per-VM facts one pass records, so a figure computed
// alone pays only for what it aggregates.
type need uint8

const (
	needPatterns need = 1 << iota // Fig 5: patterns of VMs alive at the snapshot
	needProbes                    // Fig 6: each alive hour's probe mean
	needCorr                      // Fig 7(a): Pearson against the node
	needTops                      // Fig 7(b): top-of-hour values
	needAll      = needPatterns | needProbes | needCorr | needTops
)

// SeriesFacts holds what Figures 5-7(b) read of VM utilization series,
// reduced to a few values per VM or per VM-hour. One pass materializes each
// VM's series once, into a per-worker buffer reused across VMs, records the
// facts and drops the series; the figures then aggregate the facts. A
// week-long series is 2016 values, its facts at most 2×168 plus two.
//
// Facts are indexed by the VM's position in the trace's VM slice. Every
// float sum keeps the order its figure always had (a node's VMs and a
// subscription's VMs in trace order), so results are bit-identical to
// evaluating the usage models figure by figure.
type SeriesFacts struct {
	t *trace.Trace
	// pattern is the classified pattern of each VM Fig 5(d) counts.
	pattern []core.Pattern
	// corr is the Pearson correlation of a VM's series with its node's,
	// for VMs with a day of history on nodes hosting at least two VMs
	// (hasCorr).
	corr    []float64
	hasCorr []bool
	// VM i's probe means are probes[probeOff[i]:probeOff[i+1]], one per
	// hour of aliveHours, and its top-of-hour values (Fig 7(b)'s VMs only)
	// tops[topOff[i]:topOff[i+1]].
	probeOff []int32
	probes   []float64
	topOff   []int32
	tops     []float64
}

// ComputeSeriesFacts runs the facts pass for every series figure.
func ComputeSeriesFacts(t *trace.Trace) *SeriesFacts {
	return computeFacts(t, needAll)
}

// factsChunkNodes is how many nodes one unit of the facts pass visits:
// small enough that a worker freed by another figure always finds work,
// large enough that a unit's dispatch costs nothing next to its series.
const factsChunkNodes = 8

// computeFacts materializes each VM's series once and records the facts
// what asks for. Every VM has a node, so walking each platform's nodes
// visits every VM exactly once. Nodes go to the pool in dynamic chunks;
// a worker writes only the slots of the VMs it visits, so the facts need no
// lock and the result does not depend on the worker count.
func computeFacts(t *trace.Trace, what need) *SeriesFacts {
	f := &SeriesFacts{t: t}
	n := len(t.VMs)
	var work [][]int
	for _, cloud := range core.Clouds() {
		work = append(work, nodeGroups(t, cloud)...)
	}
	// A worker's series buffer is sized once for the busiest node.
	maxSteps := 0
	for _, vms := range work {
		steps := 0
		for _, i := range vms {
			steps += stepsInWindow(t.Grid, &t.VMs[i])
		}
		maxSteps = max(maxSteps, steps)
	}
	if what&needPatterns != 0 {
		f.pattern = make([]core.Pattern, n)
	}
	if what&needCorr != 0 {
		f.corr = make([]float64, n)
		f.hasCorr = make([]bool, n)
	}
	if what&needProbes != 0 {
		f.probeOff = make([]int32, n+1)
		for i := range t.VMs {
			lo, hi := aliveHours(t, &t.VMs[i])
			f.probeOff[i+1] = f.probeOff[i] + int32(hi-lo)
		}
		f.probes = make([]float64, f.probeOff[n])
	}
	if what&needTops != 0 {
		us := usRegions(t)
		f.topOff = make([]int32, n+1)
		for i := range t.VMs {
			v := &t.VMs[i]
			f.topOff[i+1] = f.topOff[i]
			if crossRegionVM(t, us, v) {
				lo, hi := aliveHours(t, v)
				f.topOff[i+1] += int32(hi - lo)
			}
		}
		f.tops = make([]float64, f.topOff[n])
	}

	// Units hand their scratch on through a free list, so the pass
	// allocates one scratch per worker taking part, not one per unit.
	free := make(chan *factsScratch, parallel.Workers())
	parallel.ForEach((len(work)+factsChunkNodes-1)/factsChunkNodes, func(c int) {
		var w *factsScratch
		select {
		case w = <-free:
		default:
			w = &factsScratch{series: make([]float64, maxSteps)}
		}
		for _, vms := range work[c*factsChunkNodes : min(len(work), (c+1)*factsChunkNodes)] {
			f.visitNode(w, vms)
		}
		select {
		case free <- w:
		default:
		}
	})
	return f
}

// factsScratch is one worker's reusable buffers: a node's VM series back to
// back, the spans that cut them apart, and the node's series.
type factsScratch struct {
	series []float64
	spans  []factsSpan
	node   []float64
}

// factsSpan is one alive VM of the node being visited: its trace index,
// its window clipped to the trace, and its series.
type factsSpan struct {
	vm       int
	from, to int
	x        []float64
}

// visitNode materializes the series of a node's alive VMs, records each
// VM's facts and, for nodes hosting at least two VMs, each eligible VM's
// correlation with the node.
func (f *SeriesFacts) visitNode(w *factsScratch, vms []int) {
	t := f.t
	g := t.Grid
	w.spans = w.spans[:0]
	for _, i := range vms {
		if from, to, ok := t.VMs[i].AliveRange(g.N); ok {
			w.spans = append(w.spans, factsSpan{vm: i, from: from, to: to})
		}
	}
	off := 0
	for k := range w.spans {
		s := &w.spans[k]
		v := &t.VMs[s.vm]
		s.x = v.Usage.SeriesInto(w.series[off:off+s.to-s.from], g, s.from, s.to)
		off += s.to - s.from
		f.record(s)
	}
	if f.corr == nil || len(vms) < 2 {
		return // single-VM nodes are filtered out of Fig 7(a), as in the paper
	}
	w.node = nodeSeries(t, w.node, vms, w.spans)
	for _, s := range w.spans {
		if s.to-s.from >= minCorrOverlapSteps {
			f.corr[s.vm] = stats.Pearson(s.x, w.node[s.from:s.to])
			f.hasCorr[s.vm] = true
		}
	}
}

// record stores one VM's facts from its materialized series, for each
// kind of fact the pass allocated.
func (f *SeriesFacts) record(s *factsSpan) {
	t := f.t
	g := t.Grid
	v := &t.VMs[s.vm]
	if f.pattern != nil && classifiedForShares(t, v) {
		f.pattern[s.vm] = classify.Classify(s.x, classify.Options{StepsPerHour: g.StepsPerHour()}).Pattern
	}
	sph := g.StepsPerHour()
	lo, _ := aliveHours(t, v)
	if f.probes != nil {
		// An hour's later probe can land past the VM's deletion; it then
		// reads the usage model, as the figure always has.
		at := func(step int) float64 {
			if step < s.to {
				return s.x[step-s.from]
			}
			return v.Usage.At(g, step)
		}
		offsets := hourSampleOffsets(sph)
		probes := f.probes[f.probeOff[s.vm]:f.probeOff[s.vm+1]]
		for k := range probes {
			step := (lo + k) * sph
			probes[k] = (at(step+offsets[0]) + at(step+offsets[1])) / 2
		}
	}
	if f.tops != nil {
		tops := f.tops[f.topOff[s.vm]:f.topOff[s.vm+1]]
		for k := range tops {
			tops[k] = s.x[(lo+k)*sph-s.from]
		}
	}
}

// nodeSeries is Trace.NodeSeriesInto over [0, N) summed from the node's
// materialized VM series: core-weighted, VMs in node order, steps
// ascending, then divided by the node's physical cores — the same float
// operations in the same order.
func nodeSeries(t *trace.Trace, dst []float64, vms []int, spans []factsSpan) []float64 {
	if cap(dst) < t.Grid.N {
		dst = make([]float64, t.Grid.N)
	}
	dst = dst[:t.Grid.N]
	clear(dst)
	for _, s := range spans {
		w := float64(t.VMs[s.vm].Size.Cores)
		for k, u := range s.x {
			dst[s.from+k] += u * w
		}
	}
	if c, ok := t.Topology.ClusterByID(t.VMs[vms[0]].Node.Cluster); ok && c.SKU.Cores > 0 {
		for i := range dst {
			dst[i] /= float64(c.SKU.Cores)
		}
	}
	return dst
}

// nodeGroups groups one platform's VMs by hosting node, as trace indices
// in trace order, with the nodes in (cluster, index) order.
func nodeGroups(t *trace.Trace, cloud core.Cloud) [][]int {
	byNode := make(map[core.NodeRef][]int)
	for i := range t.VMs {
		if v := &t.VMs[i]; v.Cloud == cloud {
			byNode[v.Node] = append(byNode[v.Node], i)
		}
	}
	refs := make([]core.NodeRef, 0, len(byNode))
	for n := range byNode {
		refs = append(refs, n)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Cluster != refs[j].Cluster {
			return refs[i].Cluster < refs[j].Cluster
		}
		return refs[i].Index < refs[j].Index
	})
	out := make([][]int, len(refs))
	for i, n := range refs {
		out[i] = byNode[n]
	}
	return out
}

// aliveHours returns the hours [lo, hi) whose first step the VM is alive
// at: the hours Figures 6 and 7(b) sample it in.
func aliveHours(t *trace.Trace, v *trace.VM) (lo, hi int) {
	from, to, ok := v.AliveRange(t.Grid.N)
	if !ok {
		return 0, 0
	}
	sph := t.Grid.StepsPerHour()
	lo = (from + sph - 1) / sph
	hi = min((to+sph-1)/sph, t.Grid.Hours())
	return lo, max(lo, hi)
}

// hourRun is one VM's consecutive hourly facts: hours [first, first+n)
// stored from off on.
type hourRun struct {
	first, off, n int32
}

// hourRuns lists, in trace order, the probe runs of one platform's VMs
// alive at the start of at least one hour.
func (f *SeriesFacts) hourRuns(cloud core.Cloud) []hourRun {
	var runs []hourRun
	for i := range f.t.VMs {
		v := &f.t.VMs[i]
		if n := f.probeOff[i+1] - f.probeOff[i]; v.Cloud == cloud && n > 0 {
			lo, _ := aliveHours(f.t, v)
			runs = append(runs, hourRun{first: int32(lo), off: f.probeOff[i], n: n})
		}
	}
	return runs
}

// appendHour appends the probe mean of every run alive at hour h, in run
// order.
func (f *SeriesFacts) appendHour(dst []float64, runs []hourRun, h int) []float64 {
	for _, r := range runs {
		if k := int32(h) - r.first; k >= 0 && k < r.n {
			dst = append(dst, f.probes[r.off+k])
		}
	}
	return dst
}

// usRegions is the set of the topology's US region names.
func usRegions(t *trace.Trace) map[string]bool {
	us := make(map[string]bool)
	for _, r := range t.Topology.Regions {
		if r.US {
			us[r.Name] = true
		}
	}
	return us
}

// stepsInWindow returns how many steps of the window the VM lives.
func stepsInWindow(g sim.Grid, v *trace.VM) int {
	from, to, ok := v.AliveRange(g.N)
	if !ok {
		return 0
	}
	return to - from
}
