package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/stats"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// referenceBuildProfile is the fold as it was before candidates were
// selected ahead of classification: every qualified live VM is classified
// and compacted into a classifiedVM copy, the copies are sorted with
// sort.Slice, cut to the cap, and every derived field is recomputed from
// the raw sets. It stays here as the oracle the production fold is held to,
// field for field, at every fold of the replays below. live is the
// subscription's live accumulators (the fold used to walk a per-subscription
// map of them; the oracle is handed the same set, gathered independently of
// the qualified list the production fold keeps).
func referenceBuildProfile(ing *Ingestor, ss *subState, live []*vmAcc) *kb.Profile {
	p := &kb.Profile{
		Subscription:        ss.id,
		Cloud:               ss.cloud,
		Family:              ing.tr.Family,
		Regions:             sortedKeys(ss.regions),
		Services:            sortedKeys(ss.services),
		VMsObserved:         ss.vmsObserved,
		SnapshotVMs:         ss.snapshotVMs,
		SnapshotCores:       ss.snapshotCores,
		PatternShares:       make(map[core.Pattern]float64),
		RegionAgnosticScore: -1,
		PeakHourUTC:         -1,
	}
	if len(ss.lifetimes) > 0 {
		p.MedianLifetimeMin = stats.Quantile(ss.lifetimes, 0.5)
		p.ShortLivedShare = float64(ss.shortLived) / float64(len(ss.lifetimes))
	}

	cands := make([]classifiedVM, 0, len(ss.retired)+len(live))
	cands = append(cands, ss.retired...)
	for _, acc := range live {
		if acc.qualified {
			cands = append(cands, ing.record(acc))
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].idx < cands[j].idx })
	if len(cands) > ing.opts.MaxClassifyPerSub {
		cands = cands[:ing.opts.MaxClassifyPerSub]
	}
	if len(cands) > 0 {
		var utilSum float64
		var utilN int
		var hourly [24]float64
		var hourlyN [24]float64
		for _, c := range cands {
			p.PatternShares[c.pattern]++
			utilSum += c.utilSum
			utilN += c.n
			for h := 0; h < 24; h++ {
				hourly[h] += c.hourly[h]
				hourlyN[h] += float64(c.hourlyN[h])
			}
		}
		best := core.PatternUnknown
		for _, k := range ing.tr.Family.Patterns() {
			if share, ok := p.PatternShares[k]; ok {
				p.PatternShares[k] = share / float64(len(cands))
				if best == core.PatternUnknown || p.PatternShares[k] > p.PatternShares[best] {
					best = k
				}
			}
		}
		p.DominantPattern = best
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
	}
	if len(p.Regions) > 1 {
		p.RegionAgnosticScore = referenceRegionAgnosticScore(ing, ss)
	}
	return p
}

// referenceRegionAgnosticScore is the allocating region-agnosticism
// computation referenceBuildProfile was written against.
func referenceRegionAgnosticScore(ing *Ingestor, ss *subState) float64 {
	populated := 0
	for _, rh := range ss.regionHours {
		if rh != nil {
			populated++
		}
	}
	if populated < 2 {
		return -1
	}
	type namedRegion struct {
		name string
		rh   *kb.RegionHours
	}
	regions := make([]namedRegion, 0, populated)
	for ri, rh := range ss.regionHours {
		if rh != nil {
			regions = append(regions, namedRegion{ing.keys.Regions[ri], rh})
		}
	}
	for i := 1; i < len(regions); i++ {
		for j := i; j > 0 && regions[j].name < regions[j-1].name; j-- {
			regions[j], regions[j-1] = regions[j-1], regions[j]
		}
	}
	hours := ing.tr.Grid.Hours()
	avgs := make([][]float64, len(regions))
	for i, r := range regions {
		rh := r.rh
		avg := make([]float64, hours)
		for h := 0; h < hours; h++ {
			if rh.N[h] > 0 {
				avg[h] = rh.Sum[h] / rh.N[h]
			}
		}
		avgs[i] = avg
	}
	var sum float64
	var n int
	for i := 0; i < len(avgs); i++ {
		for j := i + 1; j < len(avgs); j++ {
			sum += stats.Pearson(avgs[i], avgs[j])
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}

// mean is the guarded hourly mean the oracle's peak-hour pick compares.
func mean(sum, n float64) float64 {
	if n == 0 {
		return 0
	}
	return sum / n
}

// FoldOracle is a FoldObserver that, every time the engine publishes a
// fold, rebuilds every subscription's profile with referenceBuildProfile
// and requires the published one to be JSON-equal. Exported (from a test
// file, so to test binaries only) for the fault-injected replay in the
// stream_test package, which cannot live here: faultgen imports stream.
type FoldOracle struct {
	t   testing.TB
	eng Engine
	// Folds counts the publications checked, Profiles the comparisons made,
	// OverCap those whose subscription held more candidates than
	// MaxClassifyPerSub — the cap biting.
	Folds, Profiles, OverCap int
}

// NewFoldOracle returns an oracle to put in Options.FoldObserver; Bind the
// engine built from those options before the replay starts.
func NewFoldOracle(t testing.TB) *FoldOracle { return &FoldOracle{t: t} }

// Bind attaches the engine whose folds are checked.
func (o *FoldOracle) Bind(eng Engine) { o.eng = eng }

func (o *FoldOracle) FoldBegin() {}

// FoldPublished runs on the ingestion goroutine with the engine quiesced:
// the lone shard runs inline on that goroutine, or every shard is parked
// at the merge barrier.
func (o *FoldOracle) FoldPublished(step int) {
	o.Folds++
	o.check(step)
}

// check holds the published store to the reference fold of the current
// accumulator state. The caller guarantees ingestion is quiescent.
func (o *FoldOracle) check(step int) {
	store := o.eng.KB()
	for _, ing := range o.eng.(*shardGroup).shards {
		live := make(map[*subState][]*vmAcc)
		for _, acc := range ing.accs {
			if acc != nil {
				live[acc.sub] = append(live[acc.sub], acc)
			}
		}
		for _, ss := range ing.subs {
			if ss == nil {
				continue
			}
			want := referenceBuildProfile(ing, ss, live[ss])
			cands := len(ss.retired)
			for _, acc := range live[ss] {
				if acc.qualified {
					cands++
				}
			}
			if cands > ing.opts.MaxClassifyPerSub {
				o.OverCap++
			}
			o.Profiles++
			got, ok := store.Get(ss.id)
			if !ok {
				o.t.Errorf("fold at step %d: subscription %s not published", step, ss.id)
				continue
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				o.t.Errorf("fold at step %d: reference profile %s: %v", step, ss.id, err)
				continue
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				o.t.Errorf("fold at step %d: published profile %s: %v", step, ss.id, err)
				continue
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				o.t.Errorf("fold at step %d: profile %s diverged from the reference fold:\ngot:  %s\nwant: %s",
					step, ss.id, gotJSON, wantJSON)
			}
		}
	}
}

// quarterWeek generates the CPU week at quarter scale.
func quarterWeek(t testing.TB, seed uint64) *trace.Trace {
	t.Helper()
	cfg := workload.DefaultConfig(seed)
	cfg.Scale = 0.25
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return tr
}

// replayWithOracle replays the whole trace through a fresh pipeline whose
// every fold is checked against the reference, and returns the oracle.
func replayWithOracle(t *testing.T, tr *trace.Trace, opts Options) *FoldOracle {
	t.Helper()
	o := NewFoldOracle(t)
	opts.FoldObserver = o
	p := NewPipeline(tr, opts)
	o.Bind(p.Engine())
	p.Start(context.Background())
	if err := p.Wait(); err != nil {
		t.Fatalf("pipeline (shards=%d): %v", opts.Shards, err)
	}
	if o.Folds == 0 || o.Profiles == 0 {
		t.Fatalf("oracle checked %d folds, %d profiles; the replay published nothing", o.Folds, o.Profiles)
	}
	return o
}

// TestFoldOracleCPUWeek holds every fold of the quarter-scale CPU week —
// one ingestor, then two shards through the barrier merge — to the
// reference fold.
func TestFoldOracleCPUWeek(t *testing.T) {
	if testing.Short() {
		t.Skip("full-week replays; skipped in -short mode")
	}
	tr := quarterWeek(t, 42)
	for _, shards := range []int{1, 2} {
		o := replayWithOracle(t, tr, Options{Shards: shards})
		t.Logf("shards=%d: %d folds, %d profiles JSON-equal to the reference, %d over the cap",
			shards, o.Folds, o.Profiles, o.OverCap)
	}
}

// TestFoldOracleServerlessCapBites replays serverless apps that hold far
// more qualified functions than MaxClassifyPerSub, so selection before
// classification discards most candidates at every fold — the case where
// choosing the wrong survivors would show.
func TestFoldOracleServerlessCapBites(t *testing.T) {
	cfg := workload.DefaultServerlessConfig(5)
	cfg.Apps = 6
	cfg.FunctionsPerApp = 40
	tr, err := workload.GenerateServerless(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	o := replayWithOracle(t, tr, Options{MaxClassifyPerSub: 8})
	if o.OverCap == 0 {
		t.Fatalf("no subscription ever held more than 8 candidates in %d comparisons; the cap never bit", o.Profiles)
	}
	t.Logf("%d folds, %d profiles JSON-equal to the reference, %d over the cap", o.Folds, o.Profiles, o.OverCap)
}

// TestFoldOracleAfterRestore kills a two-shard replay mid-week, restores it
// from the serialized bytes and checks the publication the restore itself
// makes — every cache cold, the qualified lists rebuilt from the
// checkpointed accumulators — then every fold of the resumed replay.
func TestFoldOracleAfterRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("full-week replay; skipped in -short mode")
	}
	tr := quarterWeek(t, 43)
	for _, shards := range []int{1, 2} {
		opts := Options{Shards: shards}
		buf := killEngineAt(t, tr, opts, tr.Grid.N/2+7)
		ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
		if err != nil {
			t.Fatalf("shards=%d: read checkpoint: %v", shards, err)
		}
		o := NewFoldOracle(t)
		opts.FoldObserver = o
		p, err := NewResumedPipeline(tr, opts, ck)
		if err != nil {
			t.Fatalf("shards=%d: resume: %v", shards, err)
		}
		o.Bind(p.Engine())
		o.check(ck.LastStep)
		if o.Profiles == 0 {
			t.Fatalf("shards=%d: the restore published no profiles", shards)
		}
		p.Start(context.Background())
		if err := p.Wait(); err != nil {
			t.Fatalf("shards=%d: resumed pipeline: %v", shards, err)
		}
		if o.Folds == 0 {
			t.Fatalf("shards=%d: the resumed replay published no folds", shards)
		}
	}
}

// TestFoldNormalisesOffTaxonomyShares pins the share normalisation the
// stream now has in common with kb.Extract: every counted pattern is
// divided by the classified count, not only the family's own. Decide never
// returns an off-taxonomy class today, so one is planted in a retired list;
// it used to be published as a raw count.
func TestFoldNormalisesOffTaxonomyShares(t *testing.T) {
	tr := miniTrace(t)
	eng := engineAt(t, tr, Options{}, tr.Grid.N/2)
	defer eng.Abort()
	g := eng.(*shardGroup)
	ing := g.shards[0]
	id := core.SubscriptionID("multi")
	g.mu.Lock()
	ss := ing.subFor(id)
	for _, pat := range []core.Pattern{core.PatternBursty, core.PatternBursty, core.PatternUnknown} {
		// A negative index sorts ahead of every real VM, so the planted
		// records survive the cap; retired records never index ing.accs.
		ss.retired = append(ss.retired, classifiedVM{idx: -1, pattern: pat, utilSum: 0.5, n: 1})
	}
	g.publishLocked(g.KB().Step(), g.KB().Seq())
	g.mu.Unlock()

	p, ok := g.KB().Get(id)
	if !ok {
		t.Fatalf("subscription %s not published", id)
	}
	var sum float64
	for pat, share := range p.PatternShares {
		if share <= 0 || share > 1 {
			t.Errorf("share of %s is %v, want within (0, 1]", pat, share)
		}
		sum += share
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares %v sum to %v, want 1", p.PatternShares, sum)
	}
	if _, ok := p.PatternShares[core.PatternBursty]; !ok {
		t.Errorf("shares %v lost the off-taxonomy class", p.PatternShares)
	}
	if !ing.tr.Family.Has(p.DominantPattern) {
		t.Errorf("dominant pattern %s is outside the %s taxonomy", p.DominantPattern, ing.tr.Family)
	}
}

// TestFoldAllocs pins what the engine's publish allocates at one shard: one
// slab holding every profile, the published snapshot and its profile slice
// (readers keep both, so neither can be reused), and per subscription the
// PatternShares map (its header, plus its one bucket group when the
// subscription has a classified VM). Nothing scales with the number of VMs
// — the candidate references, pattern counts and region averages live in
// ingestor-owned scratch, the name lists and the median lifetime in
// per-subscription caches, the rank-ordered scratch in the engine's —
// which the two mid-week states below, with different live populations,
// both have to satisfy exactly.
func TestFoldAllocs(t *testing.T) {
	cfg := workload.DefaultConfig(42)
	cfg.Scale = 0.02
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for _, stop := range []int{tr.Grid.N / 3, 2 * tr.Grid.N / 3} {
		eng := engineAt(t, tr, Options{}, stop)
		g := eng.(*shardGroup)
		subs, classified, vms := 0, 0, 0
		for _, ss := range g.shards[0].subs {
			if ss == nil {
				continue
			}
			subs++
			if len(ss.retired)+len(ss.qualified) > 0 {
				classified++
			}
			vms += len(ss.retired) + len(ss.qualified)
		}
		if classified == 0 || vms <= subs {
			t.Fatalf("step %d: %d subscriptions, %d classified, %d candidate VMs; state too thin to measure", stop, subs, classified, vms)
		}
		got := testing.AllocsPerRun(5, func() {
			g.mu.Lock()
			g.publishLocked(g.KB().Step(), g.KB().Seq())
			g.mu.Unlock()
		})
		want := float64(3 + subs + classified)
		t.Logf("step %d: %d subscriptions (%d classified), %d candidate VMs: %.0f allocs/fold", stop, subs, classified, vms, got)
		if got != want {
			t.Errorf("step %d: a fold allocates %.0f objects, want %.0f = 1 slab + 1 snapshot + 1 profile slice + %d map headers + %d map groups",
				stop, got, want, subs, classified)
		}
		eng.Abort()
	}
}
