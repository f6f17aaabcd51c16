// Package diffcheck is the differential-correctness gauntlet: it holds
// the two independent characterization implementations — the batch
// knowledge-base extractor (kb.Extract) and the streaming ingestion
// pipeline — against each other over a randomized matrix of synthetic
// workloads. Each trial generates a small multi-day trace from a seeded
// workload model, runs both implementations over the same data (the
// streaming side optionally through seeded fault injection and a
// mid-replay kill/checkpoint/resume), and diffs the resulting knowledge
// bases field by field.
//
// The comparison contract is fault-aware and deterministic:
//
//   - Lossless trials (no drops, no corruption — duplicates and bounded
//     delays are fully repaired by the reorder ring) require exact
//     equality on every structural field: the subscription roster, VM
//     counts, snapshot census, lifetime statistics, regions, services.
//   - Lossy trials (drops or corruption) can only lose information,
//     never invent it: per subscription the streaming VM count must not
//     exceed the batch count, and the total deficit across the whole
//     knowledge base is bounded by the injector's exact fault ledger.
//   - Statistical fields — dominant patterns, peak hours, mean and
//     quantile utilization, region-agnosticism — are held to explicit
//     tolerance bands (tighter when lossless), mirroring the golden
//     batch-equivalence test's agreement thresholds.
//
// Every divergence is reported with the trial's full recipe (seed,
// scale, gap policy, fault spec, kill step) and the first diverging
// subscription and field, so a failure replays exactly.
package diffcheck

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"

	"cloudlens/internal/core"
	"cloudlens/internal/faultgen"
	"cloudlens/internal/kb"
	"cloudlens/internal/sim"
	"cloudlens/internal/stream"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// Config parameterizes a gauntlet run. The zero value is not runnable;
// use withDefaults via Run.
type Config struct {
	// Trials is the number of randomized CPU-family trials (default 25;
	// -1 disables, for family-only runs).
	Trials int
	// Seed derives every trial's workload seed, fault seed, and kill
	// step; the same Config always runs the same matrix.
	Seed uint64
	// Days is the observation-window length per trial (default 3; the
	// minimum, since the snapshot analyses sample Wednesday noon).
	Days int
	// Scales are cycled across trials (default {0.05, 0.1}).
	Scales []float64
	// FaultSpecs are cycled across trials, in faultgen.ParseSpec grammar
	// (default: a mix of clean, repairable-only, and lossy specs).
	FaultSpecs []string
	// KillEvery makes every n-th trial checkpoint mid-replay and resume
	// from the serialized bytes (default 2; 0 disables).
	KillEvery int
	// ShardCounts are cycled across trials as the streaming side's shard
	// count (default nil: one shard only). A trial with more than one
	// shard additionally runs an uninterrupted one-shard reference over
	// the same faulted replay and, on lossless trials, holds the sharded
	// knowledge base bit-exactly to it.
	ShardCounts []int
	// FamilyTrials appends serverless-family trials after the CPU matrix
	// (default 10; -1 disables). These replay a one-minute-grid invocation
	// trace through the same fault/kill machinery and hold the
	// dominant-class (family-taxonomy) agreement to 100% on lossless runs:
	// both sides build the classification evidence with the same sketch,
	// so any disagreement is a pipeline bug, not statistical noise.
	FamilyTrials int
	// FamilyScales are cycled across the serverless trials (default
	// {0.5, 1}); the serverless universe is app-count-scaled and much
	// smaller than the CPU one, so it runs at higher scale.
	FamilyScales []float64
	// MaxDivergencesPerTrial caps the report size (default 16).
	MaxDivergencesPerTrial int
}

func (c Config) withDefaults() Config {
	if c.Trials < 0 {
		c.Trials = 0
	} else if c.Trials == 0 {
		c.Trials = 25
	}
	if c.Days < 3 {
		c.Days = 3
	}
	if len(c.Scales) == 0 {
		c.Scales = []float64{0.05, 0.1}
	}
	if len(c.FaultSpecs) == 0 {
		c.FaultSpecs = []string{
			"off",
			"dup=0.01,seed=7",
			"delay=0.01:3,seed=9",
			"dup=0.005,delay=0.005:2,seed=11",
			"drop=0.01,seed=13",
			"drop=0.005,dup=0.005,delay=0.005:3,corrupt=0.005,seed=17",
		}
	}
	if c.KillEvery < 0 {
		c.KillEvery = 0
	} else if c.KillEvery == 0 {
		c.KillEvery = 2
	}
	if c.FamilyTrials < 0 {
		c.FamilyTrials = 0
	} else if c.FamilyTrials == 0 {
		c.FamilyTrials = 10
	}
	if len(c.FamilyScales) == 0 {
		c.FamilyScales = []float64{0.5, 1}
	}
	if c.MaxDivergencesPerTrial <= 0 {
		c.MaxDivergencesPerTrial = 16
	}
	return c
}

// Trial is one fully derived trial recipe. Every field is printed on
// divergence so the exact trial replays from the report alone.
type Trial struct {
	Index int    `json:"index"`
	Seed  uint64 `json:"seed"`
	// Family selects the workload family (zero value: the CPU family).
	Family    core.Family      `json:"family,omitempty"`
	Scale     float64          `json:"scale"`
	GapPolicy stream.GapPolicy `json:"gapPolicy"`
	Faults    string           `json:"faults"`
	// KillStep is the batch step after which the run checkpointed and
	// resumed; -1 means the run was uninterrupted.
	KillStep int `json:"killStep"`
	// Shards is the streaming side's shard count (0 or 1: single
	// ingestor).
	Shards int `json:"shards,omitempty"`
}

func (t Trial) String() string {
	kill := "none"
	if t.KillStep >= 0 {
		kill = fmt.Sprintf("step %d", t.KillStep)
	}
	shards := ""
	if t.Shards > 1 {
		shards = fmt.Sprintf(" shards=%d", t.Shards)
	}
	family := ""
	if t.Family != core.FamilyCPU {
		family = fmt.Sprintf(" family=%s", t.Family)
	}
	return fmt.Sprintf("trial %d: seed=%d scale=%g gap=%s faults=%q kill=%s%s%s",
		t.Index, t.Seed, t.Scale, t.GapPolicy, t.Faults, kill, shards, family)
}

// Run executes the gauntlet and returns the full report. The error covers
// harness failures (generation, replay, checkpointing) — divergences are
// data, reported in the Report, not errors.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Config: cfg}
	cpuN := cfg.Days * sim.WeekGrid().StepsPerDay()
	servN := cfg.Days * workload.ServerlessGrid(cfg.Days).StepsPerDay()
	for i := 0; i < cfg.Trials+cfg.FamilyTrials; i++ {
		// A per-trial PRNG seeded from (Seed, index) keeps trials
		// independent of each other and of the matrix size.
		rng := rand.New(rand.NewSource(int64(cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)))
		tl := Trial{
			Index:     i,
			Seed:      cfg.Seed + uint64(i)*1000003,
			Scale:     cfg.Scales[i%len(cfg.Scales)],
			GapPolicy: []stream.GapPolicy{stream.GapCarry, stream.GapSkip, stream.GapInterpolate}[i%3],
			Faults:    cfg.FaultSpecs[i%len(cfg.FaultSpecs)],
			KillStep:  -1,
		}
		gridN := cpuN
		if i >= cfg.Trials {
			// Serverless-family trials: the same fault/kill/gap matrix
			// replayed over the one-minute invocation grid.
			tl.Family = core.FamilyServerless
			tl.Scale = cfg.FamilyScales[(i-cfg.Trials)%len(cfg.FamilyScales)]
			gridN = servN
		}
		if cfg.KillEvery > 0 && i%cfg.KillEvery == cfg.KillEvery-1 {
			// Anywhere strictly inside the window, including steps where
			// the reorder ring holds undelivered state.
			tl.KillStep = 1 + rng.Intn(gridN-2)
		}
		if len(cfg.ShardCounts) > 0 {
			tl.Shards = cfg.ShardCounts[i%len(cfg.ShardCounts)]
		}
		res, err := runTrial(tl, cfg)
		if err != nil {
			return rep, fmt.Errorf("diffcheck: %s: %w", tl, err)
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// runTrial generates one synthetic workload, runs both implementations
// over it, and diffs the knowledge bases. Sharded trials also run an
// uninterrupted one-shard reference over the same faulted replay:
// on lossless trials the sharded knowledge base must match it bit for
// bit (even when the sharded run was killed and resumed mid-week); on
// lossy trials both sides see the identical seeded fault sequence, so
// their ledgers must still reconcile exactly.
func runTrial(tl Trial, cfg Config) (TrialResult, error) {
	tr, batch, res, err := materializeTrial(tl, cfg)
	if err != nil {
		return TrialResult{}, err
	}
	result := compareTrial(tl, tr, batch, res, cfg.MaxDivergencesPerTrial)
	if tl.Shards > 1 {
		refTl := tl
		refTl.Shards = 0
		refTl.KillStep = -1
		spec, err := faultgen.ParseSpec(tl.Faults)
		if err != nil {
			return result, fmt.Errorf("fault spec: %w", err)
		}
		ref, err := runStream(tr, refTl, spec)
		if err != nil {
			return result, fmt.Errorf("reference stream: %w", err)
		}
		compareShardInvariance(&result, ref, res, cfg.MaxDivergencesPerTrial)
	}
	return result, nil
}

// materializeTrial produces a trial's trace and both knowledge bases
// without comparing them (the comparator's own tests corrupt the streaming
// side first).
func materializeTrial(tl Trial, cfg Config) (*trace.Trace, *kb.Store, *streamRun, error) {
	var tr *trace.Trace
	var err error
	if tl.Family == core.FamilyServerless {
		sc := workload.DefaultServerlessConfig(tl.Seed)
		sc.Scale = tl.Scale
		sc.Grid = workload.ServerlessGrid(cfg.Days)
		tr, err = workload.GenerateServerless(sc)
	} else {
		wl := workload.DefaultConfig(tl.Seed)
		wl.Scale = tl.Scale
		g := sim.WeekGrid()
		g.N = cfg.Days * g.StepsPerDay()
		wl.Grid = g
		tr, err = workload.Generate(wl)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("generate: %w", err)
	}

	batch := kb.Extract(tr, kb.ExtractOptions{})

	spec, err := faultgen.ParseSpec(tl.Faults)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("fault spec: %w", err)
	}
	res, err := runStream(tr, tl, spec)
	if err != nil {
		return nil, nil, nil, err
	}
	return tr, batch, res, nil
}

// streamRun is the streaming side's complete output for one trial.
type streamRun struct {
	eng stream.Engine
	// live is the finished engine's one capture of its live profiles and
	// per-cloud counters.
	live stream.LiveCapture
	// ledger is the injector's exact account of what it perturbed (zero
	// for clean trials).
	ledger faultgen.Ledger
	// lossless reports whether every injected fault is repairable: drops
	// and corruption destroy readings, duplicates and bounded delays are
	// fully absorbed by the reorder ring.
	lossless bool
}

// runStream replays the trace into a fresh engine (single or sharded per
// tl.Shards), optionally through the fault injector, and — on kill trials
// — serializes the engine at the kill step, restores it from the bytes,
// and finishes on the restored instance.
func runStream(tr *trace.Trace, tl Trial, spec faultgen.Spec) (*streamRun, error) {
	// The reorder window must cover the injector's delay bound or delayed
	// samples are (correctly) quarantined and the trial measures loss,
	// not equivalence.
	lateness := 3
	if spec.Delay > 0 && spec.MaxDelaySteps > lateness {
		lateness = spec.MaxDelaySteps
	}
	opts := stream.Options{
		GapPolicy:        tl.GapPolicy,
		MaxLatenessSteps: lateness,
		Shards:           tl.Shards,
	}

	var src stream.Source = stream.NewReplayer(tr, opts)
	var inj *faultgen.Injector
	if wrap := spec.Wrap(tr.Grid.N, 0, &inj); wrap != nil {
		src = wrap(src)
	}
	eng := stream.NewEngine(tr, opts)
	eng.SetRecycler(src.Recycle)

	errCh := make(chan error, 1)
	go func() { errCh <- src.Run(context.Background()) }()
	killed := tl.KillStep < 0
	for b := range src.Events() {
		step := b.Step
		eng.ObserveBatch(b)
		if !killed && step >= tl.KillStep {
			killed = true
			var buf bytes.Buffer
			if err := eng.WriteCheckpoint(&buf); err != nil {
				return nil, fmt.Errorf("checkpoint at step %d: %w", step, err)
			}
			ck, err := stream.ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
			if err != nil {
				return nil, fmt.Errorf("read checkpoint at step %d: %w", step, err)
			}
			resumed, err := stream.RestoreEngine(tr, opts, ck)
			if err != nil {
				return nil, fmt.Errorf("restore at step %d: %w", step, err)
			}
			eng.Abort()
			resumed.SetRecycler(src.Recycle)
			eng = resumed
		}
	}
	if err := <-errCh; err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	eng.Finish()

	run := &streamRun{eng: eng, live: eng.CaptureLive(), lossless: spec.Drop == 0 && spec.Corrupt == 0}
	if inj != nil {
		run.ledger = inj.Ledger()
	}
	return run, nil
}

// profile returns a subscription's live profile from the run's capture,
// zero when the stream never published it.
func (r *streamRun) profile(id core.SubscriptionID) stream.LiveProfile {
	live := r.live.Live
	i := sort.Search(len(live), func(i int) bool { return live[i].Subscription >= id })
	if i < len(live) && live[i].Subscription == id {
		return live[i]
	}
	return stream.LiveProfile{}
}
