package stream

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/obs"
	"cloudlens/internal/sketch"
	"cloudlens/internal/trace"
)

// shardGroup is the multi-core ingestion engine (DESIGN.md §11): a router
// partitions every delivered batch by subscription across N independent
// Ingestor shards, each with its own goroutine, reorder ring, dedup state,
// fault ledger, and sketch accumulators. At each fold boundary the router
// quiesces the shards behind a barrier and folds their state, in shard-ID
// order, into one published knowledge base.
//
// Bit-exactness with the single-ingestor engine on clean input rests on
// three invariants:
//
//   - a subscription's VMs all hash to one shard, so every per-VM and
//     per-subscription accumulator sees exactly the sample sequence the
//     single ingestor would feed it (the router preserves within-batch
//     order);
//   - every shard receives every batch step, even when its partition is
//     empty, so all watermarks advance in lockstep and lateness
//     quarantine decisions cannot diverge;
//   - cross-shard state is limited to per-cloud histogram counts and
//     int64 counters, whose merge is an order-independent sum of exact
//     integer-valued float64s.
type shardGroup struct {
	tr   *trace.Trace
	opts Options
	keys *trace.KeyTable
	// store is the published knowledge base, rebuilt at each merge.
	store *kb.Store
	// shardOfSub maps an interned subscription id to its owning shard:
	// FNV-1a(subscription) mod len(shards).
	shardOfSub []int32

	shards []*Ingestor
	chs    []chan shardMsg
	// pools recycle each shard's column pairs; lateFrees and delFrees do
	// the same for the rare row-form Late and deletion buffers.
	pools     []*colPool
	lateFrees []chan []Sample
	delFrees  []chan []int32
	wg        sync.WaitGroup

	// mu serializes the router-facing surface (ObserveBatch, merges,
	// checkpoints, lifecycle); shard goroutines never take it.
	mu      sync.Mutex
	closed  bool
	wm      int // fold-cadence watermark, mirroring the shards'
	recycle func(StepBatch)
	colVM   [][]int32
	colCPU  [][]float32
	lates   [][]Sample
	dels    [][]int32
	// profiles is the merge's scratch: every shard's freshly built
	// profiles, gathered for one store write.
	profiles []*kb.Profile

	lastStep  atomic.Int64
	foldCount atomic.Int64
	done      atomic.Bool

	mShardStalls []*obs.Counter
	mShardOcc    []*obs.Gauge
}

// shardMsg is one unit of work on a shard channel: a partitioned batch to
// ingest, or a barrier to quiesce behind.
type shardMsg struct {
	deliver bool
	b       StepBatch
	barrier *shardBarrier
}

// shardBarrier makes the router's merges race-free without locks on the
// ingest path: every shard checks in on ready, then blocks on release while
// the router reads shard state.
type shardBarrier struct {
	ready   *sync.WaitGroup
	release chan struct{}
}

// newShardGroup builds and starts a group of opts.Shards ingestor shards.
// Callers must eventually Finish or Abort the group to stop its goroutines.
func newShardGroup(tr *trace.Trace, opts Options) *shardGroup {
	shards := make([]*Ingestor, opts.Shards)
	for i := range shards {
		shards[i] = newIngestorWith(tr, opts, newIngestMetrics(shardLabel(i)), false, i)
	}
	return startShardGroup(tr, opts, shards, 0)
}

// startShardGroup wires prebuilt shard ingestors (fresh or restored from a
// checkpoint) into a running group.
func startShardGroup(tr *trace.Trace, opts Options, shards []*Ingestor, foldCount int64) *shardGroup {
	keys := tr.Keys()
	n := len(shards)
	g := &shardGroup{
		tr:         tr,
		opts:       opts,
		keys:       keys,
		store:      kb.NewStore(),
		shardOfSub: make([]int32, len(keys.Subs)),
		shards:     shards,
		chs:        make([]chan shardMsg, n),
		pools:      make([]*colPool, n),
		lateFrees:  make([]chan []Sample, n),
		delFrees:   make([]chan []int32, n),
		// Mirror the shards' fold watermark: StartStep-1 when fresh, the
		// checkpointed watermark when restored — so post-resume merges land
		// on exactly the boundaries the single ingestor would fold.
		wm:           shards[0].watermark,
		colVM:        make([][]int32, n),
		colCPU:       make([][]float32, n),
		lates:        make([][]Sample, n),
		dels:         make([][]int32, n),
		mShardStalls: make([]*obs.Counter, n),
		mShardOcc:    make([]*obs.Gauge, n),
	}
	for si := range g.shardOfSub {
		g.shardOfSub[si] = int32(keys.SubHash[si] % uint64(n))
	}
	g.lastStep.Store(int64(opts.StartStep) - 1)
	g.foldCount.Store(foldCount)
	for i := range shards {
		i := i
		g.chs[i] = make(chan shardMsg, opts.Buffer)
		// Cover every buffer that can be in flight per shard: the channel
		// plus the reorder ring's extra hold, mirroring the replayer pool.
		slots := opts.Buffer + opts.MaxLatenessSteps + 2
		g.pools[i] = newColPool(slots)
		g.lateFrees[i] = make(chan []Sample, slots)
		g.delFrees[i] = make(chan []int32, slots)
		g.shards[i].SetRecycler(func(b StepBatch) {
			g.pools[i].put(b.VM, b.CPU)
			if b.Late != nil {
				select {
				case g.lateFrees[i] <- b.Late[:0]:
				default:
				}
			}
		})
		g.mShardStalls[i] = obs.Default.Counter("cloudlens_stream_shard_stalls_total",
			"Times the router blocked on a full shard channel.", shardLabel(i))
		g.mShardOcc[i] = obs.Default.Gauge("cloudlens_stream_shard_occupancy",
			"Shard-channel depth observed at the last routed batch.", shardLabel(i))
		g.wg.Add(1)
		go g.runShard(i)
	}
	return g
}

// runShard is one shard's consumer loop.
func (g *shardGroup) runShard(i int) {
	defer g.wg.Done()
	ing := g.shards[i]
	for msg := range g.chs[i] {
		if msg.deliver {
			del := msg.b.Deleted
			ing.ObserveBatch(msg.b)
			// The ingestor copies deletions into its ring, so the routed
			// buffer is free as soon as ObserveBatch returns.
			if del != nil {
				select {
				case g.delFrees[i] <- del[:0]:
				default:
				}
			}
			continue
		}
		msg.barrier.ready.Done()
		<-msg.barrier.release
	}
}

// SetRecycler implements Engine: routed source buffers are handed back as
// soon as they are partitioned.
func (g *shardGroup) SetRecycler(f func(StepBatch)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.recycle = f
}

// shardOfVM routes a VM index to its owning shard via the interned
// subscription table — two array loads, no hashing.
func (g *shardGroup) shardOfVM(vm int32) int32 {
	return g.shardOfSub[g.keys.SubOf[vm]]
}

// ObserveBatch partitions one delivered batch by subscription and routes a
// sub-batch to every shard — including empty ones, so shard watermarks (and
// thus lateness quarantine) stay in lockstep with the single-ingestor
// engine. When the fold watermark crosses a fold boundary the shards are
// merged into the published store.
func (g *shardGroup) ObserveBatch(b StepBatch) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	n := len(g.shards)
	if len(b.VM) > 0 {
		hint := len(b.VM)/n + 8
		for i := 0; i < n; i++ {
			g.colVM[i], g.colCPU[i] = g.pools[i].getEmpty(hint)
		}
		vm := b.VM
		cpu := b.CPU[:len(vm)]
		for i, v := range vm {
			sh := g.shardOfVM(v)
			g.colVM[sh] = append(g.colVM[sh], v)
			g.colCPU[sh] = append(g.colCPU[sh], cpu[i])
		}
		// A shard whose partition came up empty still receives the batch
		// step (for watermark lockstep) but no columns; return its scratch
		// to the pool instead of letting it escape.
		for i, col := range g.colVM {
			if len(col) == 0 {
				g.pools[i].put(col, g.colCPU[i])
				g.colVM[i] = nil
				g.colCPU[i] = nil
			}
		}
	} else {
		for i := range g.colVM {
			g.colVM[i] = nil
			g.colCPU[i] = nil
		}
	}
	for i := range g.lates {
		g.lates[i] = nil
	}
	for _, s := range b.Late {
		sh := g.shardOfVM(s.VM)
		if g.lates[sh] == nil {
			g.lates[sh] = g.lateBuf(int(sh))
		}
		g.lates[sh] = append(g.lates[sh], s)
	}
	// The source's columns and Late rows are fully copied out; recycle
	// them in one call before routing.
	if g.recycle != nil && (b.VM != nil || b.Late != nil) {
		g.recycle(StepBatch{VM: b.VM, CPU: b.CPU, Late: b.Late})
	}
	for i := range g.dels {
		g.dels[i] = nil
	}
	for _, idx := range b.Deleted {
		sh := g.shardOfVM(idx)
		if g.dels[sh] == nil {
			g.dels[sh] = g.deletedBuf(int(sh))
		}
		g.dels[sh] = append(g.dels[sh], idx)
	}
	for i := range g.shards {
		sb := StepBatch{Step: b.Step, VM: g.colVM[i], CPU: g.colCPU[i], Late: g.lates[i], Deleted: g.dels[i]}
		g.send(i, shardMsg{deliver: true, b: sb})
	}
	g.lastStep.Store(int64(b.Step))

	// Mirror the single ingestor's fold cadence: it folds while its
	// watermark advances to b.Step - MaxLatenessSteps, once per fold
	// boundary crossed.
	if target := b.Step - g.opts.MaxLatenessSteps; target > g.wm {
		for next := g.wm + 1; next <= target; next++ {
			if g.opts.FoldEverySteps > 0 && next > 0 && next%g.opts.FoldEverySteps == 0 {
				g.mergeLocked(next)
			}
		}
		g.wm = target
	}
}

// send delivers one message to a shard, counting backpressure per shard the
// same way the replayer counts channel stalls.
func (g *shardGroup) send(i int, msg shardMsg) {
	select {
	case g.chs[i] <- msg:
	default:
		g.mShardStalls[i].Inc()
		g.chs[i] <- msg
	}
	g.mShardOcc[i].SetInt(len(g.chs[i]))
}

// lateBuf returns an empty per-shard Late-row buffer, reusing a recycled
// one when available.
func (g *shardGroup) lateBuf(i int) []Sample {
	select {
	case buf := <-g.lateFrees[i]:
		return buf[:0]
	default:
	}
	return make([]Sample, 0, 8)
}

// deletedBuf returns an empty per-shard deletion buffer.
func (g *shardGroup) deletedBuf(i int) []int32 {
	select {
	case buf := <-g.delFrees[i]:
		return buf[:0]
	default:
	}
	return make([]int32, 0, 8)
}

// barrierLocked quiesces every shard: once it returns, all previously routed
// batches are folded and the shards block until the returned channel is
// closed. Callers must not route new work before releasing.
func (g *shardGroup) barrierLocked() chan struct{} {
	var ready sync.WaitGroup
	ready.Add(len(g.shards))
	release := make(chan struct{})
	bar := &shardBarrier{ready: &ready, release: release}
	for i := range g.chs {
		g.send(i, shardMsg{barrier: bar})
	}
	ready.Wait()
	return release
}

// mergeLocked publishes one fold: quiesce the shards, then fold each
// shard's subscriptions into the published store in ascending shard-ID
// order. The order is deterministic — and since subscriptions partition
// across shards, each profile has exactly one writer, so the merged store
// is identical to the single-ingestor fold of the same accumulator state.
// step labels the fold boundary (grid steps) for the FoldObserver, which
// brackets the store rewrite exactly like the single-ingestor path so
// snapshot identities match across shard counts.
func (g *shardGroup) mergeLocked(step int) {
	start := time.Now()
	var release chan struct{}
	if !g.closed {
		release = g.barrierLocked()
	}
	if ob := g.opts.FoldObserver; ob != nil {
		ob.FoldBegin()
	}
	g.publishLocked()
	g.foldCount.Add(1)
	if ob := g.opts.FoldObserver; ob != nil {
		ob.FoldPublished(step)
	}
	if release != nil {
		close(release)
	}
	mMergeSeconds.Observe(time.Since(start).Seconds())
}

// publishLocked rebuilds every shard's profiles, in ascending shard-ID
// order, and publishes them as one store write. The shards must be quiesced
// (parked at a barrier, not yet started, or stopped).
func (g *shardGroup) publishLocked() {
	all := g.profiles[:0]
	for _, ing := range g.shards {
		all = ing.foldInto(all)
	}
	g.store.Put(all...)
	g.profiles = all
}

// closeShardsLocked closes the shard channels and waits for the consumer
// goroutines to drain and exit.
func (g *shardGroup) closeShardsLocked() {
	if g.closed {
		return
	}
	g.closed = true
	for _, ch := range g.chs {
		close(ch)
	}
	g.wg.Wait()
}

// Finish implements Engine: drain every shard's reorder ring, publish the
// final merge, and mark the knowledge base complete.
func (g *shardGroup) Finish() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closeShardsLocked()
	for _, ing := range g.shards {
		ing.Finish()
	}
	g.mergeLocked(g.tr.Grid.N)
	g.done.Store(true)
}

// Abort implements Engine: stop the shard goroutines without a final fold,
// leaving the last merged state standing (the cancellation semantics of the
// single-ingestor pipeline).
func (g *shardGroup) Abort() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closeShardsLocked()
}

// KB returns the published knowledge base.
func (g *shardGroup) KB() *kb.Store { return g.store }

// Progress implements Engine. Samples sum across shards; steps are common
// to all shards (every shard sees every batch), and folds count merges.
func (g *shardGroup) Progress() Progress {
	var samples int64
	for _, ing := range g.shards {
		samples += ing.samplesIngested.Load()
	}
	return Progress{
		Done:            g.done.Load(),
		Step:            int(g.lastStep.Load()),
		Steps:           g.tr.Grid.N,
		SamplesIngested: samples,
		StepsIngested:   g.shards[0].stepsIngested.Load(),
		Folds:           g.foldCount.Load(),
	}
}

// FaultStats sums the per-shard ledgers; the watermark lag reported is the
// worst shard's.
func (g *shardGroup) FaultStats() FaultStats {
	var out FaultStats
	for _, ing := range g.shards {
		fs := ing.FaultStats()
		out.Reordered += fs.Reordered
		out.DuplicatesDropped += fs.DuplicatesDropped
		out.QuarantinedCorrupt += fs.QuarantinedCorrupt
		out.QuarantinedLate += fs.QuarantinedLate
		out.GapsFilled += fs.GapsFilled
		out.GapsSkipped += fs.GapsSkipped
		if fs.WatermarkLag > out.WatermarkLag {
			out.WatermarkLag = fs.WatermarkLag
		}
	}
	return out
}

// ShardVitals reports each shard's progress and fault ledger.
func (g *shardGroup) ShardVitals() []ShardVital {
	out := make([]ShardVital, len(g.shards))
	for i, ing := range g.shards {
		out[i] = ShardVital{
			Shard:           i,
			Step:            int(ing.lastStep.Load()),
			SamplesIngested: ing.samplesIngested.Load(),
			StepsIngested:   ing.stepsIngested.Load(),
			Faults:          ing.FaultStats(),
		}
	}
	return out
}

// IngestVitals reports each shard's columnar-batch vitals, attaching the
// router's per-shard column pool ledger.
func (g *shardGroup) IngestVitals() []IngestVital {
	out := make([]IngestVital, len(g.shards))
	for i, ing := range g.shards {
		out[i] = ing.ingestVital()
		out[i].Shard = i
		out[i].Pool = g.pools[i].stats()
	}
	return out
}

// Summary merges the per-shard cloud aggregates over the published store's
// summaries. Histogram counts are integer-valued float64s, so the merge is
// exact and order-independent; shards are still walked in ID order.
func (g *shardGroup) Summary() Summary {
	out := Summary{
		Step:   int(g.lastStep.Load()),
		Steps:  g.tr.Grid.N,
		Done:   g.done.Load(),
		Clouds: make(map[string]CloudLive, 2),
	}
	for _, c := range core.Clouds() {
		util := sketch.NewHistogram(0, 1, cloudBins)
		var samples, vmsSeen int64
		for _, ing := range g.shards {
			ing.mu.RLock()
			cs := ing.clouds[c]
			util.Merge(cs.util)
			samples += cs.samples
			vmsSeen += cs.vmsSeen
			ing.mu.RUnlock()
		}
		out.Clouds[c.String()] = CloudLive{
			Summary:         g.store.Summarize(c),
			SamplesIngested: samples,
			VMsSeen:         vmsSeen,
			UtilP50:         util.Quantile(0.5),
			UtilP95:         util.Quantile(0.95),
		}
	}
	return out
}

// ownerOf returns the shard that owns a subscription's streaming state.
func (g *shardGroup) ownerOf(id core.SubscriptionID) *Ingestor {
	si, ok := g.keys.SubIndex(id)
	if !ok {
		return nil
	}
	return g.shards[g.shardOfSub[si]]
}

// Profiles lists live profiles matching the query, each augmented by its
// owning shard's streaming state.
func (g *shardGroup) Profiles(q kb.Query) []LiveProfile {
	list := g.store.List(q)
	out := make([]LiveProfile, 0, len(list))
	for _, p := range list {
		if ing := g.ownerOf(p.Subscription); ing != nil {
			out = append(out, ing.liveProfile(p))
		} else {
			out = append(out, LiveProfile{Profile: *p})
		}
	}
	return out
}

// Profile returns one subscription's live profile.
func (g *shardGroup) Profile(id core.SubscriptionID) (LiveProfile, bool) {
	p, ok := g.store.Get(id)
	if !ok {
		return LiveProfile{}, false
	}
	if ing := g.ownerOf(id); ing != nil {
		return ing.liveProfile(p), true
	}
	return LiveProfile{Profile: *p}, true
}

// WriteCheckpoint implements Engine.
func (g *shardGroup) WriteCheckpoint(w io.Writer) error {
	_, err := writeCheckpoint(w, g.tr, g.captureCheckpoint())
	return err
}

// captureCheckpoint implements Engine: quiesce the shards and deep-copy
// each shard's snapshot at a common step boundary.
func (g *shardGroup) captureCheckpoint() *Checkpoint {
	g.mu.Lock()
	defer g.mu.Unlock()
	var release chan struct{}
	if !g.closed {
		release = g.barrierLocked()
	}
	snaps := make([]*ShardCheckpoint, len(g.shards))
	var samples int64
	for i, ing := range g.shards {
		snaps[i] = ing.snapshot()
		samples += snaps[i].SamplesIngested
	}
	if release != nil {
		close(release)
	}
	return &Checkpoint{
		ShardCount:      len(g.shards),
		LastStep:        int(g.lastStep.Load()),
		SamplesIngested: samples,
		StepsIngested:   snaps[0].StepsIngested,
		FoldCount:       g.foldCount.Load(),
		Shards:          snaps,
	}
}
