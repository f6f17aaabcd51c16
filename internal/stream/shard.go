package stream

import (
	"cmp"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cloudlens/internal/kb"
	"cloudlens/internal/obs"
	"cloudlens/internal/parallel"
	"cloudlens/internal/trace"
)

// shardGroup is the ingestion engine (DESIGN.md §11): a router partitions
// every delivered batch by subscription across N independent Ingestor
// shards, each with its own reorder ring, dedup state, fault ledger, and
// sketch accumulators. At each fold boundary the router quiesces the shards
// and folds their state into one published knowledge-base snapshot.
//
// One shard is the N=1 case run inline: the router hands the delivered
// batch, and the source's recycler, straight to the lone shard on its own
// goroutine, so there is no shard goroutine, channel, barrier or column
// re-partitioning. With N > 1 each shard consumes a channel on its own
// goroutine and merges happen behind a barrier.
//
// Bit-exactness across shard counts on clean input rests on three
// invariants:
//
//   - a subscription's VMs all hash to one shard, so every per-VM and
//     per-subscription accumulator sees exactly the sample sequence a single
//     shard would feed it (the router preserves within-batch order);
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
	// published is the knowledge base: one immutable snapshot per fold,
	// labelled with the fold's boundary and the fold count.
	published atomic.Pointer[kb.Snapshot]
	// rank orders the interned subscription ids by subscription, computed
	// once. A fold places each profile at its rank in byRank, nil between
	// folds, so the snapshot comes out sorted without a sort.
	rank   []int32
	byRank []*kb.Profile
	// shardOfSub maps an interned subscription id to its owning shard:
	// FNV-1a(subscription) mod len(shards).
	shardOfSub []int32
	shards     []*Ingestor

	// The routing machinery of a multi-shard group, nil inline: the shard
	// channels, the pools recycling each shard's column pairs, and the free
	// lists of the rare row-form Late and deletion buffers.
	chs          []chan shardMsg
	pools        []*colPool
	lateFrees    []chan []Sample
	delFrees     []chan []int32
	wg           sync.WaitGroup
	mShardStalls []*obs.Counter
	mShardOcc    []*obs.Gauge

	// srcPool is the feeding source's column ledger; an inline shard folds
	// the source's own buffers, so it is that shard's pool.
	srcPool PoolStatser
	// mergeSeconds times each publication: the lone shard's fold histogram
	// inline, the barrier-merge histogram otherwise.
	mergeSeconds *obs.Histogram

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

	lastStep atomic.Int64
	done     atomic.Bool
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
		shards[i] = newIngestor(tr, opts, shardMetrics(i))
	}
	return startShardGroup(tr, opts, shards, 0)
}

// startShardGroup wires prebuilt shard ingestors (fresh or restored from a
// checkpoint) into a running group, publishing an empty snapshot labelled
// with the last fold the shards have seen.
func startShardGroup(tr *trace.Trace, opts Options, shards []*Ingestor, foldCount int64) *shardGroup {
	keys := tr.Keys()
	n := len(shards)
	g := &shardGroup{
		tr:           tr,
		opts:         opts,
		keys:         keys,
		rank:         subRanks(keys),
		byRank:       make([]*kb.Profile, len(keys.Subs)),
		shardOfSub:   make([]int32, len(keys.Subs)),
		shards:       shards,
		mergeSeconds: mMergeSeconds,
		// Mirror the shards' fold watermark: StartStep-1 when fresh, the
		// checkpointed watermark when restored — so post-resume merges land
		// on exactly the boundaries the interrupted run would have merged.
		wm: shards[0].watermark,
	}
	for si := range g.shardOfSub {
		g.shardOfSub[si] = int32(keys.SubHash[si] % uint64(n))
	}
	g.lastStep.Store(int64(opts.StartStep) - 1)
	// A restored group's last fold is the last boundary its watermark
	// crossed, or the grid's end once Finish drained the ring past it (an
	// unfinished run's watermark trails its newest step, at most Grid.N).
	foldStep := 0
	if foldCount > 0 && opts.FoldEverySteps > 0 {
		foldStep = g.wm - g.wm%opts.FoldEverySteps
		if g.wm > tr.Grid.N {
			foldStep = tr.Grid.N
		}
	}
	g.published.Store(kb.SnapshotOf(foldStep, uint64(foldCount)))
	if n == 1 {
		g.mergeSeconds = shards[0].met.foldSeconds
		return g
	}

	g.chs = make([]chan shardMsg, n)
	g.pools = make([]*colPool, n)
	g.lateFrees = make([]chan []Sample, n)
	g.delFrees = make([]chan []int32, n)
	g.colVM = make([][]int32, n)
	g.colCPU = make([][]float32, n)
	g.lates = make([][]Sample, n)
	g.dels = make([][]int32, n)
	g.mShardStalls = make([]*obs.Counter, n)
	g.mShardOcc = make([]*obs.Gauge, n)
	for i := range shards {
		i := i
		g.chs[i] = make(chan shardMsg, bufferSteps)
		// Cover every buffer that can be in flight per shard: the channel
		// plus the reorder ring's extra hold, mirroring the replayer pool.
		slots := bufferSteps + opts.MaxLatenessSteps + 2
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

// SetRecycler implements Engine. Inline, the lone shard hands spent buffers
// straight back to the source once their slot folds; routed, the source's
// buffers are handed back as soon as they are partitioned.
func (g *shardGroup) SetRecycler(f func(StepBatch)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.chs == nil {
		g.shards[0].SetRecycler(f)
		return
	}
	g.recycle = f
}

// shardOfVM routes a VM index to its owning shard via the interned
// subscription table — two array loads, no hashing.
func (g *shardGroup) shardOfVM(vm int32) int32 {
	return g.shardOfSub[g.keys.SubOf[vm]]
}

// ObserveBatch implements Engine: the batch goes to the lone shard as it
// is, or is partitioned across the shards, and when the fold watermark
// crosses a fold boundary the shards are merged into the published snapshot.
func (g *shardGroup) ObserveBatch(b StepBatch) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	if g.chs == nil {
		g.shards[0].ObserveBatch(b)
	} else {
		g.routeLocked(b)
	}
	g.lastStep.Store(int64(b.Step))

	// Every shard's watermark advances to b.Step - MaxLatenessSteps; merge
	// once per fold boundary it crosses.
	if target := b.Step - g.opts.MaxLatenessSteps; target > g.wm {
		for next := g.wm + 1; next <= target; next++ {
			if g.opts.FoldEverySteps > 0 && next > 0 && next%g.opts.FoldEverySteps == 0 {
				g.mergeLocked(next)
			}
		}
		g.wm = target
	}
}

// routeLocked partitions one delivered batch by subscription and sends a
// sub-batch to every shard — including empty ones, so shard watermarks (and
// thus lateness quarantine) stay in lockstep.
func (g *shardGroup) routeLocked(b StepBatch) {
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

// quiesceLocked makes the shards' state safe to read: routed shards are
// parked at a barrier once every previously routed batch is folded, and the
// returned channel releases them; inline (or once closed) there is nothing
// running, and it returns nil. Callers must not route new work before
// releasing.
func (g *shardGroup) quiesceLocked() chan struct{} {
	if g.chs == nil || g.closed {
		return nil
	}
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

// mergeLocked publishes one fold: quiesce the shards, then publish their
// subscriptions' profiles as the next snapshot, labelled with the fold
// boundary step (grid steps) and one more fold. The FoldObserver brackets
// the publication.
func (g *shardGroup) mergeLocked(step int) {
	start := time.Now()
	release := g.quiesceLocked()
	if ob := g.opts.FoldObserver; ob != nil {
		ob.FoldBegin()
	}
	g.publishLocked(step, g.KB().Seq()+1)
	if ob := g.opts.FoldObserver; ob != nil {
		ob.FoldPublished(step)
	}
	if release != nil {
		close(release)
	}
	g.mergeSeconds.Observe(time.Since(start).Seconds())
}

// publishLocked rebuilds every shard's profiles and publishes them as one
// snapshot labelled step and seq. Subscriptions partition across shards,
// so each profile has exactly one builder and the snapshot is the same at
// every shard count. The slice is fresh each fold, since readers keep
// snapshots. The shards must be quiesced (parked at a barrier, inline, not
// yet started, or stopped).
func (g *shardGroup) publishLocked(step int, seq uint64) {
	n := 0
	for _, ing := range g.shards {
		n += ing.foldInto(g.byRank, g.rank)
	}
	profiles := make([]*kb.Profile, 0, n)
	for i, p := range g.byRank {
		if p != nil {
			profiles = append(profiles, p)
			g.byRank[i] = nil
		}
	}
	g.published.Store(kb.SnapshotOf(step, seq, profiles...))
}

// subRanks returns each interned subscription's position in subscription
// order. The key table interns in order of first appearance, not sorted.
func subRanks(keys *trace.KeyTable) []int32 {
	order := make([]int32, len(keys.Subs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(keys.Subs[a], keys.Subs[b]) })
	rank := make([]int32, len(order))
	for r, si := range order {
		rank[si] = int32(r)
	}
	return rank
}

// closeShardsLocked stops routing: it closes the shard channels and waits
// for the consumer goroutines to drain and exit.
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
// leaving the last merged state standing.
func (g *shardGroup) Abort() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closeShardsLocked()
}

// KB returns the published knowledge base, the last fold's snapshot.
func (g *shardGroup) KB() *kb.Snapshot { return g.published.Load() }

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
		Folds:           int64(g.KB().Seq()),
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

// ShardVitals reports each shard's progress and fault ledger. It takes no
// barrier: each shard's counters are read while the router may still be
// delivering to it, so a mid-replay reading is approximate — it can trail
// what has been routed, and the shards are not read at one instant. The
// figures are exact once the shards are quiesced: after Finish, or right
// after a merge or checkpoint barrier with nothing routed since.
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

// IngestVitals reports each shard's columnar-batch vitals with the ledger
// of the column pool that feeds it: the router's per-shard pool, or inline
// the source's own.
func (g *shardGroup) IngestVitals() []IngestVital {
	out := make([]IngestVital, len(g.shards))
	for i, ing := range g.shards {
		out[i] = ing.ingestVital()
		out[i].Shard = i
		switch {
		case g.pools != nil:
			out[i].Pool = g.pools[i].stats()
		case g.srcPool != nil:
			out[i].Pool = g.srcPool.PoolStats()
		}
	}
	return out
}

// WriteCheckpoint implements Engine.
func (g *shardGroup) WriteCheckpoint(w io.Writer) error {
	_, _, err := g.writeCheckpoint(w)
	return err
}

// writeCheckpoint writes the engine's state to w and returns the step the
// file holds and its size.
func (g *shardGroup) writeCheckpoint(w io.Writer) (int, int64, error) {
	ck, sections := g.encodeCheckpoint()
	size, err := writeSections(w, g.tr, ck, sections)
	return ck.LastStep, size, err
}

// encodeCheckpoint quiesces the shards and, one shard per worker,
// snapshots each shard and encodes its section while the shards are
// parked. A snapshot lends the live lag rings to the encoder, so each ring
// is copied once, into its section. The Checkpoint returned carries the
// group-level fields only.
func (g *shardGroup) encodeCheckpoint() (*Checkpoint, []section) {
	g.mu.Lock()
	defer g.mu.Unlock()
	release := g.quiesceLocked()
	ck := &Checkpoint{
		ShardCount:    len(g.shards),
		LastStep:      int(g.lastStep.Load()),
		StepsIngested: g.shards[0].stepsIngested.Load(),
		FoldCount:     int64(g.KB().Seq()),
	}
	sections := parallel.Map(len(g.shards), func(i int) section {
		sc := g.shards[i].snapshot()
		sc.FoldCount = ck.FoldCount
		return encodeSection(sc)
	})
	for _, ing := range g.shards {
		ck.SamplesIngested += ing.samplesIngested.Load()
	}
	if release != nil {
		close(release)
	}
	return ck, sections
}
