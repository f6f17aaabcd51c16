package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"cloudlens"
	"cloudlens/internal/core"
	"cloudlens/internal/faultgen"
	"cloudlens/internal/kb"
	"cloudlens/internal/stream"
)

// ingestPlan is what the two ingest workloads differ in.
type ingestPlan struct {
	tr     *cloudlens.Trace
	shards int
	faults faultgen.Spec // zero: a clean feed
}

// foldTimer is the pipeline's FoldObserver: it forwards to the bound
// ReadSource (the wkbserver wiring) and notes, from outside, how long each
// fold kept the published store torn. Both callbacks run on the goroutine
// that calls ObserveBatch and Finish.
type foldTimer struct {
	next   *stream.ReadSource
	rec    *recorder
	parent *int // the driving span a fold nests in, traced runs only
	began  time.Time
	id     int
	ms     []float64
}

func (f *foldTimer) FoldBegin() {
	f.began = time.Now()
	if f.parent != nil {
		f.id = f.rec.begin("stream.ingest.fold", *f.parent)
	}
	f.next.FoldBegin()
}

func (f *foldTimer) FoldPublished(step int) {
	f.next.FoldPublished(step)
	if f.parent != nil {
		f.rec.end(f.id)
	}
	f.ms = append(f.ms, float64(time.Since(f.began).Nanoseconds())/1e6)
}

// options builds one pipeline's options: a fresh ReadSource behind a fold
// timer, and a fresh injector when the plan has faults.
func (p ingestPlan) options() (stream.Options, *foldTimer, **faultgen.Injector) {
	ft := &foldTimer{next: stream.NewReadSource(time.Now)}
	inj := new(*faultgen.Injector)
	return stream.Options{
		Shards:       p.shards,
		FoldObserver: ft,
		WrapSource:   p.faults.Wrap(p.tr.Grid.N, 0, inj),
	}, ft, inj
}

// replay is one unpaced pass of the trace through stream.Pipeline.
type replay struct {
	pipe    *stream.Pipeline
	inj     *faultgen.Injector
	wall    float64
	samples int64
	foldMS  []float64
}

func (p ingestPlan) replayOnce() (replay, error) {
	opts, ft, inj := p.options()
	pipe := stream.NewPipeline(p.tr, opts)
	ft.next.Bind(pipe.Engine())
	start := time.Now()
	pipe.Start(context.Background())
	if err := pipe.Wait(); err != nil {
		return replay{}, err
	}
	wall := time.Since(start).Seconds()
	st := pipe.Status()
	if !st.Done || st.SamplesIngested == 0 {
		return replay{}, fmt.Errorf("replay did not finish: %+v", st)
	}
	return replay{pipe: pipe, inj: *inj, wall: wall, samples: st.SamplesIngested, foldMS: ft.ms}, nil
}

func fingerprintOf(store *kb.Store, step int) string {
	return kb.NewSnapshot(store, step, 0).Fingerprint()
}

// runIngestClean replays a clean CPU week through one ingestor.
func runIngestClean(r *run) error {
	cfg := cloudlens.DefaultConfig(r.seed)
	cfg.Scale = r.size.cleanScale
	var tr *cloudlens.Trace
	var batch *kb.Store // the reference the live KB must agree with
	err := r.setup(func() (err error) {
		gen := r.rec.timed("workload.generate", -1, func() { tr, err = cloudlens.Generate(cfg) })
		r.layer("workload.generate_s", gen.Seconds())
		if err == nil {
			batch = kb.Extract(tr, kb.ExtractOptions{})
		}
		return err
	}, nil)
	if err != nil {
		return err
	}
	plan := ingestPlan{tr: tr, shards: 1}

	var perS, folds []float64
	var first string
	var untraced float64 // wall of the latest pipeline replay
	one := func(i int) error {
		rp, err := plan.replayOnce()
		if err != nil {
			return err
		}
		untraced = rp.wall
		perS = append(perS, float64(rp.samples)/rp.wall)
		folds = append(folds, rp.foldMS...)
		agree, total := dominantAgreement(batch, rp.pipe.KB())
		r.check("agrees-with-batch", total > 0 && float64(agree) >= 0.95*float64(total),
			"dominant pattern agrees on %d of %d subscriptions", agree, total)
		fp := fingerprintOf(rp.pipe.KB(), tr.Grid.N)
		if i == 0 {
			first = fp
			r.hashes["kb_fingerprint"] = fp
		}
		r.check("kb-equal-across-iterations", fp == first, "iteration %d fingerprint %s, iteration 0 %s", i, fp, first)
		return nil
	}

	if !r.traced {
		if err := r.iterate("replay", one); err != nil {
			return err
		}
		r.name("ingest_samples_per_s", math.NaN(), perS, iterations)
		r.name("fold_p50_ms", math.NaN(), folds, operations)
		r.name("fold_p90_ms", tailOf(folds, 90), folds, operations)
		r.slot("work_per_s", math.NaN(), perS, iterations)
		r.slot("op_p50_ms", math.NaN(), folds, operations)
		r.slot("op_tail_ms", tailOf(folds, 90), folds, operations)
		return nil
	}

	if err := one(0); err != nil {
		return err
	}
	d, err := plan.handDrive(r)
	if err != nil {
		return err
	}
	r.layer("trace_overhead_pct", 100*(d.ingestWall-untraced)/untraced)
	r.check("kb-equal-across-iterations", fingerprintOf(d.eng.KB(), tr.Grid.N) == first, "hand-driven fingerprint differs from the pipeline's %s", first)
	r.layer("stream.replay.synth_s", plan.sourceAlone(false))
	r.probeSketches(r.size.probeValues)
	if err := r.probeReadSide(d.eng.KB(), tr.Grid.N, d.read.Live().SummaryJSON()); err != nil {
		return err
	}
	return r.writeSpanFile()
}

// dominantAgreement counts the subscriptions the batch extractor
// classified and how many of them the live KB gives the same dominant
// pattern.
func dominantAgreement(batch, live *kb.Store) (agree, total int) {
	for _, want := range batch.List(kb.MatchAll()) {
		if want.DominantPattern == core.PatternUnknown {
			continue
		}
		total++
		if got, ok := live.Get(want.Subscription); ok && got.DominantPattern == want.DominantPattern {
			agree++
		}
	}
	return agree, total
}

// roughFaults is ingest-rough's fault mix; the seed is the run's.
func roughFaults(seed uint64) faultgen.Spec {
	return faultgen.Spec{Seed: seed, Drop: 0.01, Dup: 0.005, Delay: 0.01, MaxDelaySteps: 3, Corrupt: 0.002}
}

// runIngestRough replays a faulty serverless window through two shards,
// then checkpoints the finished state and resumes from it.
func runIngestRough(r *run) error {
	cfg := cloudlens.DefaultServerlessConfig(r.seed)
	cfg.Scale = r.size.roughScale
	var tr *cloudlens.Trace
	err := r.setup(func() (err error) {
		gen := r.rec.timed("workload.generate_serverless", -1, func() { tr, err = cloudlens.GenerateServerless(cfg) })
		r.layer("workload.generate_serverless_s", gen.Seconds())
		return err
	}, nil)
	if err != nil {
		return err
	}
	plan := ingestPlan{tr: tr, shards: 2, faults: roughFaults(r.seed)}
	ckpt := r.path("rough.ckpt")
	defer os.Remove(ckpt)

	var perS, checkpointS, resumeS, recoverMS []float64
	var first string
	var untraced float64 // wall of the latest pipeline replay
	one := func(i int) error {
		rp, err := plan.replayOnce()
		if err != nil {
			return err
		}
		untraced = rp.wall
		perS = append(perS, float64(rp.samples)/rp.wall)
		r.checkLedger(rp.inj.Ledger(), rp.pipe.FaultStats())
		pre := fingerprintOf(rp.pipe.KB(), tr.Grid.N)
		if i == 0 {
			first = pre
			r.hashes["kb_fingerprint"] = pre
		}
		r.check("kb-equal-across-iterations", pre == first, "iteration %d fingerprint %s, iteration 0 %s", i, pre, first)

		start := time.Now()
		if _, err := rp.pipe.SaveCheckpoint(ckpt); err != nil {
			return err
		}
		cs := time.Since(start).Seconds()

		start = time.Now()
		ck, err := stream.LoadCheckpointFile(ckpt, tr)
		if err != nil {
			return err
		}
		opts, ft, _ := plan.options()
		resumed, err := stream.NewResumedPipeline(tr, opts, ck)
		if err != nil {
			return err
		}
		ft.next.Bind(resumed.Engine())
		resumed.Start(context.Background())
		if err := resumed.Wait(); err != nil {
			return err
		}
		rs := time.Since(start).Seconds()
		r.check("resumed-kb-equals-checkpointed", fingerprintOf(resumed.KB(), tr.Grid.N) == pre && len(ft.ms) > 0,
			"resumed fingerprint differs from %s, or no final fold was published (%d folds)", pre, len(ft.ms))
		checkpointS, resumeS = append(checkpointS, cs), append(resumeS, rs)
		recoverMS = append(recoverMS, 1000*(cs+rs))
		return nil
	}

	if !r.traced {
		if err := r.iterate("replay+recover", one); err != nil {
			return err
		}
		r.name("ingest_samples_per_s", math.NaN(), perS, iterations)
		r.name("checkpoint_s", math.NaN(), checkpointS, iterations)
		r.name("resume_s", math.NaN(), resumeS, iterations)
		r.slot("work_per_s", math.NaN(), perS, iterations)
		r.slot("op_p50_ms", math.NaN(), recoverMS, iterations)
		r.slot("op_tail_ms", math.NaN(), recoverMS, iterations)
		return nil
	}

	if err := one(0); err != nil {
		return err
	}
	before, err := scrapeRegistry()
	if err != nil {
		return err
	}
	d, err := plan.handDrive(r)
	if err != nil {
		return err
	}
	after, err := scrapeRegistry()
	if err != nil {
		return err
	}
	r.layer("trace_overhead_pct", 100*(d.ingestWall-untraced)/untraced)
	pre := fingerprintOf(d.eng.KB(), tr.Grid.N)
	r.check("kb-equal-across-iterations", pre == first, "hand-driven fingerprint %s differs from the pipeline's %s", pre, first)

	led, fs := d.inj.Ledger(), d.eng.FaultStats()
	r.checkLedger(led, fs)
	r.layer("faultgen.dropped", float64(led.Dropped))
	r.layer("faultgen.duplicated", float64(led.Duplicated))
	r.layer("faultgen.delayed", float64(led.Delayed))
	r.layer("faultgen.corrupted", float64(led.Corrupted))
	r.layer("stream.ingest.reordered", float64(fs.Reordered))
	r.layer("stream.ingest.duplicates_dropped", float64(fs.DuplicatesDropped))
	r.layer("stream.ingest.quarantined", float64(fs.QuarantinedCorrupt+fs.QuarantinedLate))
	r.layer("stream.ingest.gap_fills", float64(fs.GapsFilled))
	r.layer("stream.ingest.useful_share", float64(d.samples)/float64(d.emitted))

	r.layer("stream.shard.route_s", d.observeTotal)
	const merge = "cloudlens_stream_merge_duration_seconds"
	r.layer("stream.shard.merge_s", after.sum(merge+"_sum")-before.sum(merge+"_sum"))
	r.layer("stream.shard.merges", after.sum(merge+"_count")-before.sum(merge+"_count"))
	r.layer("stream.shard.stalls", after.sum("cloudlens_stream_shard_stalls_total")-before.sum("cloudlens_stream_shard_stalls_total"))
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, sv := range d.eng.ShardVitals() {
		lo, hi = min(lo, sv.SamplesIngested), max(hi, sv.SamplesIngested)
	}
	if lo > 0 && hi > 0 {
		r.layer("stream.shard.skew", float64(hi)/float64(lo))
	}

	// Checkpoint, load and restore, each in its own span, on the engine
	// the hand drive finished.
	root := r.rec.begin("recover", -1)
	var size int64
	w := r.rec.timed("stream.checkpoint.write", root, func() { size, err = writeCheckpoint(d.eng, ckpt) })
	if err != nil {
		return err
	}
	var ck *stream.Checkpoint
	l := r.rec.timed("stream.checkpoint.load", root, func() { ck, err = stream.LoadCheckpointFile(ckpt, tr) })
	if err != nil {
		return err
	}
	var restored stream.Engine
	opts, ft, _ := plan.options()
	re := r.rec.timed("stream.checkpoint.restore", root, func() {
		if restored, err = stream.RestoreEngine(tr, opts, ck); err == nil {
			ft.next.Bind(restored)
			restored.Finish() // the checkpoint covers the whole window: only the final fold is owed
		}
	})
	r.rec.end(root)
	if err != nil {
		return err
	}
	r.check("resumed-kb-equals-checkpointed", fingerprintOf(restored.KB(), tr.Grid.N) == pre, "restored fingerprint differs from %s", pre)
	r.layer("stream.checkpoint.write_s", w.Seconds())
	r.layer("stream.checkpoint.bytes", float64(size))
	r.layer("stream.checkpoint.load_s", l.Seconds())
	r.layer("stream.checkpoint.restore_s", re.Seconds())

	synth := plan.sourceAlone(false)
	r.layer("stream.replay.synth_s", synth)
	r.layer("faultgen.inject_s", plan.sourceAlone(true)-synth)
	r.layer("classify.invocation_ns_per_series", probeClassifyInvocation(dayPlusSeries(tr, r.size.probeSeries), tr.Grid.StepsPerHour()))
	return r.writeSpanFile()
}

// checkLedger requires the stream's fault books to reconcile with the
// injector's exact account: every duplicate dropped, every delayed sample
// reordered, every corrupt one quarantined, none lost past the watermark.
func (r *run) checkLedger(led faultgen.Ledger, fs stream.FaultStats) {
	ok := fs.DuplicatesDropped == led.Duplicated && fs.Reordered == led.Delayed &&
		fs.QuarantinedCorrupt == led.Corrupted && fs.QuarantinedLate == 0
	r.check("fault-ledgers-reconcile", ok, "injector %+v, stream %+v", led, fs)
}

// writeCheckpoint serialises the engine to path the way
// Pipeline.SaveCheckpoint does, and returns the file's size.
func writeCheckpoint(eng stream.Engine, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := eng.WriteCheckpoint(f); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// sourceAlone times the plan's source — the replayer, or the injector
// over it — drained by a consumer that only hands buffers back.
func (p ingestPlan) sourceAlone(withFaults bool) float64 {
	opts, _, _ := p.options()
	var src stream.Source = stream.NewReplayer(p.tr, opts)
	if withFaults && opts.WrapSource != nil {
		src = opts.WrapSource(src)
	}
	start := time.Now()
	errCh := make(chan error, 1)
	go func() { errCh <- src.Run(context.Background()) }()
	for b := range src.Events() {
		src.Recycle(stream.StepBatch{VM: b.VM, CPU: b.CPU, Late: b.Late})
	}
	<-errCh
	return time.Since(start).Seconds()
}

// drive is what one traced hand drive leaves behind.
type drive struct {
	eng  stream.Engine
	read *stream.ReadSource
	inj  *faultgen.Injector
	// ingestWall is the drive's wall less the reads after each fold (and
	// their allocation accounting), which the pipeline it is compared with
	// does not make.
	ingestWall   float64
	samples      int64 // folded into live state
	emitted      int64 // left the replayer
	observeTotal float64
}

// handDrive replaces stream.Pipeline by the same few calls made from
// here — replayer (behind the injector, if any), engine, recycler, one
// ObserveBatch per delivered batch, Finish — with a span around each, and
// after every fold the first ReadSource.Live() and ETag() a reader would
// pay for. It reports the stream.* per-layer metrics of the drive.
func (p ingestPlan) handDrive(r *run) (drive, error) {
	opts, ft, _ := p.options()
	cur := -1
	ft.rec, ft.parent = r.rec, &cur

	rep := stream.NewReplayer(p.tr, opts)
	var src stream.Source = rep
	var inj *faultgen.Injector
	if p.faults.Enabled() {
		var err error
		if inj, err = faultgen.New(rep, p.faults, p.tr.Grid.N); err != nil {
			return drive{}, err
		}
		src = inj
	}
	eng := stream.NewEngine(p.tr, opts)
	ft.next.Bind(eng)
	eng.SetRecycler(src.Recycle)

	before, err := scrapeRegistry()
	if err != nil {
		return drive{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// The reads after each fold are a reader's cost, not ingestion's:
	// their allocations are counted apart and left out of the per-sample
	// rates.
	var rebuildMS, etagMS []float64
	var readMallocs, readBytes uint64
	afterFold := func(parent int) {
		var a, b runtime.MemStats
		r.rec.timed("cloudbench.memstats", parent, func() { runtime.ReadMemStats(&a) })
		var ls *stream.LiveSnapshot
		rebuildMS = append(rebuildMS, float64(r.rec.timed("stream.read.rebuild", parent, func() { ls = ft.next.Live() }).Nanoseconds())/1e6)
		etagMS = append(etagMS, float64(r.rec.timed("kb.fingerprint", parent, func() { probeSink = ls.KB().ETag() }).Nanoseconds())/1e6)
		r.rec.timed("cloudbench.memstats", parent, func() { runtime.ReadMemStats(&b) })
		readMallocs += b.Mallocs - a.Mallocs
		readBytes += b.TotalAlloc - a.TotalAlloc
	}

	root := r.rec.begin("ingest.drive", -1)
	errCh := make(chan error, 1)
	go func() { errCh <- src.Run(context.Background()) }()
	for {
		wait := r.rec.begin("stream.replay.wait", root)
		b, ok := <-src.Events()
		r.rec.end(wait)
		if !ok {
			break
		}
		folds := len(ft.ms)
		cur = r.rec.begin("stream.ingest.observe", root)
		eng.ObserveBatch(b)
		r.rec.end(cur)
		if len(ft.ms) > folds {
			afterFold(root)
		}
	}
	if err := <-errCh; err != nil {
		return drive{}, err
	}
	cur = r.rec.begin("stream.ingest.finish", root)
	eng.Finish()
	r.rec.end(cur)
	afterFold(root)
	wall := r.rec.end(root).Seconds()

	runtime.ReadMemStats(&m1)
	after, err := scrapeRegistry()
	if err != nil {
		return drive{}, err
	}

	pr := eng.Progress()
	if !pr.Done || pr.SamplesIngested == 0 {
		return drive{}, fmt.Errorf("hand drive did not finish: %+v", pr)
	}
	t := totalsOf(r.rec.snapshot())
	samples := float64(pr.SamplesIngested)
	r.layer("stream.replay.wait_s", t.self["stream.replay.wait"].Seconds())
	r.layer("stream.replay.stalls", after.sum("cloudlens_stream_backpressure_stalls_total")-before.sum("cloudlens_stream_backpressure_stalls_total"))
	r.layer("stream.ingest.observe_s", t.self["stream.ingest.observe"].Seconds())
	r.layer("stream.ingest.observe_ns_per_sample", float64(t.self["stream.ingest.observe"].Nanoseconds())/samples)
	r.layer("stream.ingest.fold_s", t.total["stream.ingest.fold"].Seconds())
	r.layer("stream.ingest.fold_p50_ms", median(ft.ms))
	r.layer("stream.ingest.folds", float64(len(ft.ms)))
	r.layer("stream.ingest.finish_s", t.self["stream.ingest.finish"].Seconds())
	r.layer("stream.ingest.allocs_per_sample", float64(m1.Mallocs-m0.Mallocs-readMallocs)/samples)
	r.layer("stream.ingest.bytes_per_sample", float64(m1.TotalAlloc-m0.TotalAlloc-readBytes)/samples)
	r.layer("stream.read.rebuild_p50_ms", median(rebuildMS))
	r.layer("stream.read.rebuild_total_s", t.total["stream.read.rebuild"].Seconds())
	r.layer("kb.fingerprint_p50_ms", median(etagMS))

	// The drive's self times must account for its wall: what the root
	// span does not cover by children is loop overhead and nothing else.
	uncovered := 100 * t.self["ingest.drive"].Seconds() / wall
	r.layer("stream.ingest.uncovered_pct", uncovered)
	r.check("spans-cover-the-drive", uncovered <= 3, "%.2f%% of the traced wall is inside no layer span", uncovered)

	reads := t.total["stream.read.rebuild"] + t.total["kb.fingerprint"] + t.total["cloudbench.memstats"]
	return drive{eng: eng, read: ft.next, inj: inj, ingestWall: wall - reads.Seconds(), samples: pr.SamplesIngested,
		emitted: rep.SamplesEmitted(), observeTotal: t.total["stream.ingest.observe"].Seconds()}, nil
}
