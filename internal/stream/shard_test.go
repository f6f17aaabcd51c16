package stream

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// runPipeline replays the whole trace through a fresh pipeline with the
// given options and returns it finished.
func runPipeline(t *testing.T, tr *trace.Trace, opts Options) *Pipeline {
	t.Helper()
	p := NewPipeline(tr, opts)
	p.Start(context.Background())
	if err := p.Wait(); err != nil {
		t.Fatalf("pipeline (shards=%d): %v", opts.Shards, err)
	}
	return p
}

// liveOf reads a pipeline's live surface the way the server does: through a
// ReadSource bound to its engine.
func liveOf(p *Pipeline) *LiveSnapshot {
	rs := NewReadSource(nil)
	rs.Bind(p.Engine())
	return rs.Live()
}

// soleShard returns the ingestor of a one-shard engine, for tests that
// inspect the streaming state behind it.
func soleShard(eng Engine) *Ingestor {
	return eng.(*shardGroup).shards[0]
}

// requireSameLiveState fails unless two finished pipelines expose exactly
// the same knowledge base, live profiles, per-cloud summary, and fault
// ledger — the bit-exactness contract between shard counts.
func requireSameLiveState(t *testing.T, label string, got, want *Pipeline) {
	t.Helper()
	gp, wp := listAll(got.KB()), listAll(want.KB())
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d profiles, want %d", label, len(gp), len(wp))
	}
	for i := range wp {
		if !reflect.DeepEqual(*gp[i], *wp[i]) {
			t.Errorf("%s: profile %s diverged:\ngot:  %+v\nwant: %+v",
				label, wp[i].Subscription, *gp[i], *wp[i])
		}
	}
	gl, wl := liveOf(got), liveOf(want)
	if g, w := gl.live, wl.live; !reflect.DeepEqual(g, w) {
		t.Errorf("%s: live profiles diverged:\ngot:  %+v\nwant: %+v", label, g, w)
	}
	if !bytes.Equal(gl.bodies, wl.bodies) {
		t.Errorf("%s: encoded live profiles diverged", label)
	}
	if g, w := gl.Summary(), wl.Summary(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: summaries diverged:\ngot:  %+v\nwant: %+v", label, g, w)
	}
	if g, w := got.FaultStats(), want.FaultStats(); g != w {
		t.Errorf("%s: fault ledgers diverged: %+v vs %+v", label, g, w)
	}
}

// TestShardRouterDisjointCoverage pins the partition function: every
// subscription is owned by exactly one shard, chosen by its key hash, and
// every VM routes to its subscription's owner.
func TestShardRouterDisjointCoverage(t *testing.T) {
	tr := miniTrace(t)
	eng := NewEngine(tr, Options{Shards: 3})
	defer eng.Abort()
	g, ok := eng.(*shardGroup)
	if !ok {
		t.Fatalf("NewEngine with Shards=3 built %T, want *shardGroup", eng)
	}
	keys := tr.Keys()
	if len(g.shardOfSub) != len(keys.Subs) {
		t.Fatalf("router covers %d subscriptions, trace has %d", len(g.shardOfSub), len(keys.Subs))
	}
	for si, sh := range g.shardOfSub {
		if sh < 0 || int(sh) >= len(g.shards) {
			t.Fatalf("subscription %s routed to shard %d of %d", keys.Subs[si], sh, len(g.shards))
		}
		if want := int32(keys.SubHash[si] % uint64(len(g.shards))); sh != want {
			t.Errorf("subscription %s routed to shard %d, hash says %d", keys.Subs[si], sh, want)
		}
	}
	for vm := range tr.VMs {
		if got, want := g.shardOfVM(int32(vm)), g.shardOfSub[keys.SubOf[vm]]; got != want {
			t.Errorf("VM %d routed to shard %d, its subscription's owner is %d", vm, got, want)
		}
	}
}

// TestOneShardRunsInline pins that one shard is the inline case of the
// engine: NewEngine starts no goroutine — no shard consumer, no channel to
// drain — so the process runs as many goroutines while a hand-fed replay
// folds, and after Finish, as before the engine existed.
func TestOneShardRunsInline(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := NewEngine(microTrace(), Options{FoldEverySteps: 2})
	feedSteps(eng, 10)
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines while a one-shard engine ingests, %d before NewEngine", n, before)
	}
	eng.Finish()
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after Finish, %d before NewEngine", n, before)
	}
	// Steps 0-9 under the default lateness bound of 3 fold the watermark to
	// step 6: boundaries 2, 4 and 6, then the final fold.
	if pr := eng.Progress(); !pr.Done || pr.Folds != 4 {
		t.Errorf("progress %+v, want done after 3 folds mid-stream and the final one", pr)
	}
}

// TestShardInvarianceExactMini is the tentpole contract on the hand-built
// trace: for every shard count, the merged knowledge base, live profiles,
// summary, and fault ledger are deeply equal to the one-shard run's —
// not merely within tolerance. Shard counts above the subscription count
// (here 2) leave some shards permanently empty and must still agree.
func TestShardInvarianceExactMini(t *testing.T) {
	tr := miniTrace(t)
	opts := Options{FoldEverySteps: 12}
	ref := runPipeline(t, tr, opts)

	for _, n := range []int{2, 3, 4} {
		sopts := opts
		sopts.Shards = n
		p := runPipeline(t, tr, sopts)
		requireSameLiveState(t, "shards=2..4", p, ref)

		st := p.Status()
		if st.Shards != n {
			t.Errorf("shards=%d: status reports %d shards", n, st.Shards)
		}
		// Exact per-shard counts only hold at a barrier: runPipeline has
		// waited for Finish, whose final merge quiesced every shard.
		vitals := p.ShardVitals()
		if len(vitals) != n {
			t.Fatalf("shards=%d: %d vitals", n, len(vitals))
		}
		var samples int64
		for i, v := range vitals {
			if v.Shard != i {
				t.Errorf("vital %d labeled shard %d", i, v.Shard)
			}
			if v.Step != tr.Grid.N {
				t.Errorf("shard %d stopped at step %d, want %d", i, v.Step, tr.Grid.N)
			}
			samples += v.SamplesIngested
		}
		if samples != st.SamplesIngested {
			t.Errorf("shards=%d: vitals sum to %d samples, status says %d", n, samples, st.SamplesIngested)
		}
	}
}

// TestShardInvarianceExactGenerated repeats the exactness check on a
// generated workload with hundreds of subscriptions, so every shard owns
// real state and the hour-barrier merge handles contended scale.
func TestShardInvarianceExactGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("full-week replay; skipped in -short mode")
	}
	cfg := workload.DefaultConfig(43)
	cfg.Scale = 0.25
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	opts := Options{}
	ref := runPipeline(t, tr, opts)
	sopts := opts
	sopts.Shards = 4
	requireSameLiveState(t, "generated shards=4", runPipeline(t, tr, sopts), ref)
}

// engineAt replays a fresh engine up to and including batch stopStep and
// returns it quiesced, the replay cancelled; the caller aborts it.
func engineAt(t *testing.T, tr *trace.Trace, opts Options, stopStep int) Engine {
	t.Helper()
	rep := NewReplayer(tr, opts)
	eng := NewEngine(tr, opts)
	eng.SetRecycler(rep.Recycle)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- rep.Run(ctx) }()
	for b := range rep.Events() {
		eng.ObserveBatch(b)
		if b.Step >= stopStep {
			break
		}
	}
	cancel()
	for range rep.Events() {
		// Lost with the process, exactly like a kill.
	}
	<-errCh
	return eng
}

// killEngineAt snapshots a fresh engine after batch stopStep and aborts it,
// like a kill: whatever the replay had in flight is lost.
func killEngineAt(t *testing.T, tr *trace.Trace, opts Options, stopStep int) *bytes.Buffer {
	t.Helper()
	eng := engineAt(t, tr, opts, stopStep)
	defer eng.Abort()
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("write sharded checkpoint at step %d: %v", stopStep, err)
	}
	return &buf
}

// TestShardKillResumeExact is the sharded kill/resume golden: kill a
// 4-shard replay mid-week, resume from the serialized bytes with the same
// shard count, and require the final knowledge base to be bit-identical to
// both the uninterrupted 4-shard run and the one-shard run.
func TestShardKillResumeExact(t *testing.T) {
	tr := miniTrace(t)
	opts := Options{FoldEverySteps: 12, Shards: 4}

	single := runPipeline(t, tr, Options{FoldEverySteps: 12})
	ref := runPipeline(t, tr, opts)
	requireSameLiveState(t, "uninterrupted shards=4", ref, single)

	for _, stop := range []int{0, 287, 1007, 2015} {
		buf := killEngineAt(t, tr, opts, stop)
		ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
		if err != nil {
			t.Fatalf("stop %d: read: %v", stop, err)
		}
		if ck.ShardCount != 4 || len(ck.Shards) != 4 {
			t.Fatalf("stop %d: checkpoint records %d shards (%d snapshots), want 4", stop, ck.ShardCount, len(ck.Shards))
		}
		if ck.LastStep != stop {
			t.Fatalf("stop %d: checkpoint records step %d", stop, ck.LastStep)
		}
		resumed, err := NewResumedPipeline(tr, opts, ck)
		if err != nil {
			t.Fatalf("stop %d: resume: %v", stop, err)
		}
		resumed.Start(context.Background())
		if err := resumed.Wait(); err != nil {
			t.Fatalf("stop %d: resumed pipeline: %v", stop, err)
		}
		requireSameLiveState(t, "resumed shards=4 vs shards=4", resumed, ref)
		requireSameLiveState(t, "resumed shards=4 vs shards=1", resumed, single)
	}
}

// TestShardResumeRejectsMismatchedCount pins the loud-failure contract: a
// checkpoint written under one shard count must refuse to resume under
// another — silently repartitioning would split live accumulators across
// dedup cursors — and the error must tell the operator which -shards value
// to rerun with.
func TestShardResumeRejectsMismatchedCount(t *testing.T) {
	tr := miniTrace(t)
	buf := killEngineAt(t, tr, Options{FoldEverySteps: 12, Shards: 2}, 287)
	ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	for _, n := range []int{1, 4} {
		_, err := NewResumedPipeline(tr, Options{Shards: n}, ck)
		if err == nil {
			t.Fatalf("resume with %d shards accepted a 2-shard checkpoint", n)
		}
		if !strings.Contains(err.Error(), "-shards") {
			t.Errorf("resume error does not name the -shards flag: %v", err)
		}
	}
	// The recorded count resumes fine.
	if _, err := NewResumedPipeline(tr, Options{Shards: 2}, ck); err != nil {
		t.Fatalf("matching shard count refused: %v", err)
	}
}

// TestShardCheckpointRejectsForeignState pins the partition validation: a
// shard snapshot holding a subscription another shard owns must be refused
// at read time.
func TestShardCheckpointRejectsForeignState(t *testing.T) {
	tr := miniTrace(t)
	// Pick a shard count under which the fixture's two subscriptions land
	// on different shards, so each snapshot owns real state to misplace.
	keys := tr.Keys()
	shards := 0
	for n := 2; n <= MaxShards; n++ {
		if keys.SubHash[0]%uint64(n) != keys.SubHash[1]%uint64(n) {
			shards = n
			break
		}
	}
	if shards == 0 {
		t.Fatal("no shard count separates the fixture subscriptions")
	}
	buf := killEngineAt(t, tr, Options{FoldEverySteps: 12, Shards: shards}, 287)
	ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	from := ck.Shards[int(keys.SubHash[0]%uint64(shards))]
	to := ck.Shards[int(keys.SubHash[1]%uint64(shards))]
	if len(from.Subs) == 0 || len(to.Subs) == 0 {
		t.Fatalf("fixture shards own %d and %d subscriptions, want both non-empty", len(from.Subs), len(to.Subs))
	}
	to.Subs = append(to.Subs, from.Subs...)
	if err := ck.validate(tr); err == nil {
		t.Fatal("checkpoint accepted a subscription in the wrong shard")
	}
}

// TestShardedProfileLookup checks the query surface routes to the owning
// shard: every subscription's live profile is served with streaming fields
// populated, and unknown subscriptions miss cleanly.
func TestShardedProfileLookup(t *testing.T) {
	tr := miniTrace(t)
	live := liveOf(runPipeline(t, tr, Options{Shards: 3}))
	for _, sub := range []core.SubscriptionID{"multi", "solo"} {
		lp, ok := live.Profile(sub)
		if !ok {
			t.Fatalf("live profile %s missing", sub)
		}
		if lp.Samples == 0 || lp.UtilP50 <= 0 {
			t.Errorf("%s live fields empty: %+v", sub, lp)
		}
	}
	if _, ok := live.Profile("no-such-subscription"); ok {
		t.Error("unknown subscription produced a profile")
	}
}

// TestRestoredFoldStepMatchesUninterrupted holds a restored engine's
// last-fold label to the uninterrupted engine's, at one and two shards:
// from checkpoints written mid-hour, and from one written after the final
// fold. Until its first fold, a resumed engine labels what it serves with
// this step.
func TestRestoredFoldStepMatchesUninterrupted(t *testing.T) {
	tr := miniTrace(t)
	restoredFoldStep := func(eng Engine, opts Options) int {
		t.Helper()
		var buf bytes.Buffer
		if err := eng.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		restored, err := RestoreEngine(tr, opts, ck)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		defer restored.Abort()
		return restored.KB().Step()
	}
	for _, shards := range []int{1, 2} {
		opts := Options{Shards: shards}
		for _, stop := range []int{5*12 + 7, 83*12 + 11} {
			eng := engineAt(t, tr, opts, stop)
			want := eng.KB().Step()
			got := restoredFoldStep(eng, opts)
			eng.Abort()
			if want == 0 || got != want {
				t.Errorf("shards=%d stop %d: restored fold step %d, uninterrupted %d", shards, stop, got, want)
			}
		}
		eng := engineAt(t, tr, opts, tr.Grid.N)
		eng.Finish()
		if got := restoredFoldStep(eng, opts); got != tr.Grid.N {
			t.Errorf("shards=%d finished: restored fold step %d, want %d", shards, got, tr.Grid.N)
		}
	}
}

// labelChecker is a FoldObserver that checks, at every fold, the labels of
// the snapshot the engine has just published.
type labelChecker struct {
	t     *testing.T
	eng   Engine
	folds int64
}

func (c *labelChecker) FoldBegin() {}

func (c *labelChecker) FoldPublished(step int) {
	c.folds++
	sn, pr := c.eng.KB(), c.eng.Progress()
	if sn.Step() != step || sn.Seq() != uint64(pr.Folds) || pr.Folds != c.folds {
		c.t.Errorf("fold %d at step %d published step %d seq %d with progress at %d folds",
			c.folds, step, sn.Step(), sn.Seq(), pr.Folds)
	}
}

// TestPublishedSnapshotLabels holds the fold as the one thing that labels
// a snapshot: at every fold, at one shard and two, the published snapshot's
// Step is the fold boundary and its Seq the fold count, and between folds
// every capture reads that one published value rather than a copy.
func TestPublishedSnapshotLabels(t *testing.T) {
	tr := miniTrace(t)
	for _, shards := range []int{1, 2} {
		check := &labelChecker{t: t}
		opts := Options{Shards: shards, FoldObserver: check}
		rep := NewReplayer(tr, opts)
		eng := NewEngine(tr, opts)
		check.eng = eng
		eng.SetRecycler(rep.Recycle)
		errCh := make(chan error, 1)
		go func() { errCh <- rep.Run(context.Background()) }()
		for b := range rep.Events() {
			eng.ObserveBatch(b)
			first, second := eng.CaptureLive().KB, eng.CaptureLive().KB
			if first != second || first != eng.KB() {
				t.Fatalf("shards=%d step %d: two captures between folds read different snapshots", shards, b.Step)
			}
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		eng.Finish()
		if sn := eng.KB(); check.folds < 2 || sn.Step() != tr.Grid.N || sn.Seq() != uint64(check.folds) {
			t.Errorf("shards=%d: final snapshot step %d seq %d after %d folds", shards, sn.Step(), sn.Seq(), check.folds)
		}
	}
}
