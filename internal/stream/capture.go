package stream

import (
	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/sketch"
)

// CloudCounters is one platform's stream-side counters captured at a fold
// boundary: sample and VM totals plus sketch-estimated utilization
// quantiles, already resolved to floats so the capture holds no live
// sketch references.
type CloudCounters struct {
	Samples int64
	VMsSeen int64
	UtilP50 float64
	UtilP95 float64
}

// PatternBand is one workload pattern's utilization band, estimated from
// the merged per-subscription utilization sketches of every profiled
// subscription whose dominant pattern matches. It backs one row of
// GET /api/v1/live/percentiles — the paper's Figure 5 utilization bands,
// served per pattern while ingestion runs.
type PatternBand struct {
	Pattern       core.Pattern `json:"pattern"`
	Subscriptions int          `json:"subscriptions"`
	Samples       int64        `json:"samples"`
	P10           float64      `json:"p10"`
	P25           float64      `json:"p25"`
	P50           float64      `json:"p50"`
	P75           float64      `json:"p75"`
	P90           float64      `json:"p90"`
	P95           float64      `json:"p95"`
	P99           float64      `json:"p99"`
}

// PercentilesReport is the payload of GET /api/v1/live/percentiles:
// per-pattern utilization bands in taxonomy order. The sketches keep
// accumulating between folds, so the bands are capture-time estimates —
// byte-stable because each snapshot captures them exactly once.
type PercentilesReport struct {
	Step     int           `json:"step"`
	Patterns []PatternBand `json:"patterns"`
}

// LiveCapture is everything the read path needs from the engine, captured
// in one consistent pass: the published profiles, their live augmentation,
// per-cloud counters, and per-pattern utilization bands. Live is parallel
// to Profiles. A capture shares no mutable state with the engine — the
// sketches are merged into fresh histograms and resolved to quantiles —
// so a LiveSnapshot built from it is immutable.
type LiveCapture struct {
	Profiles []*kb.Profile // sorted by subscription
	Live     []LiveProfile // Live[i] augments Profiles[i]
	Clouds   map[core.Cloud]CloudCounters
	Patterns []PatternBand
	Step     int
	Steps    int
	Done     bool
}

// patternAcc accumulates one pattern's band while profiles are walked.
type patternAcc struct {
	hist *sketch.Histogram
	subs int
}

// bandAccs walks a pattern accumulator map into the report rows, in
// taxonomy order, skipping patterns with no classified subscriptions.
func bandAccs(accs map[core.Pattern]*patternAcc) []PatternBand {
	out := make([]PatternBand, 0, len(accs))
	for _, pat := range core.Patterns() {
		acc := accs[pat]
		if acc == nil || acc.subs == 0 {
			continue
		}
		out = append(out, PatternBand{
			Pattern:       pat,
			Subscriptions: acc.subs,
			Samples:       acc.hist.Count(),
			P10:           acc.hist.Quantile(0.10),
			P25:           acc.hist.Quantile(0.25),
			P50:           acc.hist.Quantile(0.50),
			P75:           acc.hist.Quantile(0.75),
			P90:           acc.hist.Quantile(0.90),
			P95:           acc.hist.Quantile(0.95),
			P99:           acc.hist.Quantile(0.99),
		})
	}
	return out
}

// mergePattern folds one subscription's utilization sketch into its
// dominant pattern's band accumulator.
func mergePattern(accs map[core.Pattern]*patternAcc, p *kb.Profile, util *sketch.Histogram) {
	if p.DominantPattern == core.PatternUnknown || util == nil {
		return
	}
	acc := accs[p.DominantPattern]
	if acc == nil {
		acc = &patternAcc{hist: sketch.NewHistogram(0, 1, subBins)}
		accs[p.DominantPattern] = acc
	}
	acc.subs++
	acc.hist.Merge(util)
}

// CaptureLive implements Engine: one consistent capture of the published
// store and the streaming state. Holding g.mu serializes the capture
// against merges (which rewrite the published store), so the profile list
// and the per-shard accumulators are one consistent view; each shard's
// read lock is then taken once for its whole partition instead of once per
// profile.
func (g *shardGroup) CaptureLive() LiveCapture {
	g.mu.Lock()
	defer g.mu.Unlock()
	list := g.store.List(kb.MatchAll())
	live := make([]LiveProfile, len(list))
	accs := make(map[core.Pattern]*patternAcc)

	// Partition the profile indices by owning shard so each shard is
	// visited exactly once, in shard-ID order.
	byShard := make([][]int, len(g.shards))
	for i, p := range list {
		si, ok := g.keys.SubIndex(p.Subscription)
		if !ok {
			live[i] = LiveProfile{Profile: *p}
			continue
		}
		sh := g.shardOfSub[si]
		byShard[sh] = append(byShard[sh], i)
	}
	cloudHists := make(map[core.Cloud]*sketch.Histogram, 2)
	clouds := make(map[core.Cloud]CloudCounters, 2)
	for _, c := range core.Clouds() {
		cloudHists[c] = sketch.NewHistogram(0, 1, cloudBins)
		clouds[c] = CloudCounters{}
	}
	for sh, ing := range g.shards {
		ing.mu.RLock()
		for _, i := range byShard[sh] {
			p := list[i]
			live[i] = ing.liveProfileLocked(p)
			if ss := ing.subFor(p.Subscription); ss != nil {
				mergePattern(accs, p, ss.util)
			}
		}
		for _, c := range core.Clouds() {
			cs := ing.clouds[c]
			cc := clouds[c]
			cc.Samples += cs.samples
			cc.VMsSeen += cs.vmsSeen
			clouds[c] = cc
			cloudHists[c].Merge(cs.util)
		}
		ing.mu.RUnlock()
	}
	for _, c := range core.Clouds() {
		cc := clouds[c]
		cc.UtilP50 = cloudHists[c].Quantile(0.5)
		cc.UtilP95 = cloudHists[c].Quantile(0.95)
		clouds[c] = cc
	}
	return LiveCapture{
		Profiles: list,
		Live:     live,
		Clouds:   clouds,
		Patterns: bandAccs(accs),
		Step:     int(g.lastStep.Load()),
		Steps:    g.tr.Grid.N,
		Done:     g.done.Load(),
	}
}
