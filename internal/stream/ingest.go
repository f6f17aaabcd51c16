package stream

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudlens/internal/classify"
	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/periodic"
	"cloudlens/internal/sketch"
	"cloudlens/internal/stats"
	"cloudlens/internal/trace"
)

// Quantile-sketch resolutions. Per-subscription sketches use 400 bins over
// [0, 1] (0.25 percentage points per bin), per-cloud sketches 2000 bins
// (0.05 pp) — both far inside the one-percentage-point batch-equivalence
// tolerance documented in DESIGN.md.
const (
	subBins   = 400
	cloudBins = 2000
)

// lagSet holds the streaming classifier's target lags and the hill-test
// lags around them, for one grid resolution.
type lagSet struct {
	hour, halfHour, day int
	all                 []int
}

func newLagSet(stepsPerHour int) lagSet {
	ls := lagSet{
		hour:     stepsPerHour,
		halfHour: stepsPerHour / 2,
		day:      24 * stepsPerHour,
	}
	seen := make(map[int]bool)
	add := func(lag int) {
		if lag >= 1 && !seen[lag] {
			seen[lag] = true
			ls.all = append(ls.all, lag)
		}
	}
	for _, target := range []int{ls.hour, ls.halfHour, ls.day} {
		if target < 2 {
			continue
		}
		add(target)
		add(target - target/2)
		add(target + target/2)
	}
	return ls
}

// vmAcc is the per-VM streaming state: an autocorrelation sketch over the
// classifier's target lags (which doubles as mean/variance tracking and a
// ring of the most recent day-and-a-half of samples), the hour-alignment
// accumulators, and — once the VM has a day of history and qualifies for
// profiling — per-UTC-hour utilization sums.
type vmAcc struct {
	idx  int32
	v    *trace.VM
	sub  *subState
	from int
	ac   *sketch.AutoCorr

	// Ordering state: next is the grid step the VM's series expects next
	// (deduplication and gap detection key off it), last the most recent
	// accepted utilization (the carry/interpolate gap fills' anchor). seen
	// distinguishes "no sample yet" from "expects step 0".
	seen bool
	next int
	last float64

	peakSum, restSum float64
	peakN, restN     int

	// Serverless-family evidence: the running sample peak and the count of
	// idle samples (below InvocationOptions.IdleEps). Maintained only when
	// the trace is the serverless family, so the CPU hot path pays one
	// predictable branch and nothing else.
	peakMax float64
	idleN   int

	qualified bool
	hourly    [24]float64
	hourlyN   [24]int

	// gapSteps records, until qualification, the grid steps GapSkip left
	// unfilled. The autocorrelation ring is index-addressed, so under skip
	// the i-th retained sample is not at from+i; qualify's flush needs the
	// holes to recover each sample's true step. Cleared at qualification
	// (afterwards samples fold with their real step directly).
	gapSteps []int32
}

// classifiedVM is the compact record a qualified VM leaves behind when it
// retires, carrying exactly what profile folding needs.
type classifiedVM struct {
	idx     int32
	pattern core.Pattern
	utilSum float64
	n       int
	hourly  [24]float64
	hourlyN [24]int
}

// regionHour accumulates a subscription's per-region top-of-hour
// utilization sums (the Figure 7b signal) incrementally.
type regionHour struct {
	sum []float64
	n   []float64
}

// subState is the per-subscription streaming state.
type subState struct {
	id       core.SubscriptionID
	cloud    core.Cloud
	regions  map[string]bool
	services map[string]bool

	vmsObserved   int
	snapshotVMs   int
	snapshotCores int

	lifetimes  []float64
	shortLived int

	util *sketch.Histogram
	// qualified lists (by VM index) the subscription's live VMs that have
	// a day of history, in no particular order: qualify appends, retire
	// removes. Together with retired it is the fold's candidate set, so a
	// fold never walks the VMs that cannot contribute yet and touches only
	// the accumulators that survive the cap.
	qualified []int32
	retired   []classifiedVM
	// regionHours is indexed by the trace's interned region id; entries
	// are allocated when the subscription first reports from the region.
	regionHours []*regionHour

	// Derived state a fold would otherwise recompute every hour although
	// only lifecycle events change it. Never checkpointed: both region and
	// service sets and the lifetime list only grow, so each cache is current
	// exactly when it was built at today's size, and a restored
	// subscription rebuilds it at its first fold. The name slices are
	// shared with published profiles and therefore replaced, never edited.
	regionNames, serviceNames []string
	medianLifetime            float64
	medianOf                  int // len(lifetimes) medianLifetime was taken at
}

// sortedNames returns the set's keys in order, reusing cached while it still
// covers the whole set.
func sortedNames(cached []string, set map[string]bool) []string {
	if cached != nil && len(cached) == len(set) {
		return cached
	}
	return sortedKeys(set)
}

// medianLifetimeMin is the median of the completed lifetimes, re-sorted
// only after a retirement added one.
func (ss *subState) medianLifetimeMin() float64 {
	if ss.medianOf != len(ss.lifetimes) {
		ss.medianLifetime = stats.Quantile(ss.lifetimes, 0.5)
		ss.medianOf = len(ss.lifetimes)
	}
	return ss.medianLifetime
}

// foldRef names one fold candidate without copying it: a VM index plus
// where its evidence lives — an entry of the subscription's retired list,
// or (retired < 0) the live accumulator ing.accs[idx].
type foldRef struct {
	idx     int32
	retired int32
}

// namedRegion is one populated region of a subscription during the
// region-agnosticism computation.
type namedRegion struct {
	name string
	rh   *regionHour
}

func (ss *subState) addRegionHour(region int32, hour int, x float64, hours int) {
	rh := ss.regionHours[region]
	if rh == nil {
		rh = &regionHour{sum: make([]float64, hours), n: make([]float64, hours)}
		ss.regionHours[region] = rh
	}
	rh.sum[hour] += x
	rh.n[hour]++
}

// cloudState aggregates one platform's stream.
type cloudState struct {
	util    *sketch.Histogram
	samples int64
	vmsSeen int64
}

// reorderSlot buffers one grid step's telemetry until the watermark proves
// no more samples for the step can arrive. The common all-on-time batch
// parks here zero-copy — its columns are stolen from the delivered batch
// and recycled at fold — and folds in step order; the step's lifecycle
// deletions queue behind its samples so a delayed reading is never
// discarded by its own VM's retirement.
type reorderSlot struct {
	step  int
	valid bool
	// owned marks columns stolen from a delivered batch; fold recycles
	// them back to the source instead of letting them escape.
	owned bool
	// vm and cpu are the step's sample columns (cpu parallel to vm).
	vm  []int32
	cpu []float32
	// extras holds row-form samples that joined the step out of band:
	// reordered strays delivered in later batches, plus — defensively —
	// the columns of a duplicate batch step, materialized as rows behind
	// whatever already waits so fold order always equals arrival order.
	extras  []Sample
	deleted []int32
}

// FaultStats is the ingestor's ledger of input imperfections: what was
// reordered, dropped, repaired, or refused. Served by /api/v1/live/faults
// and matched exactly against the fault injector's ledger in tests.
type FaultStats struct {
	// Reordered counts samples that arrived in a later batch than their
	// Step (and were buffered back into order).
	Reordered int64 `json:"reordered"`
	// DuplicatesDropped counts samples discarded because the VM's series
	// already covered their step.
	DuplicatesDropped int64 `json:"duplicatesDropped"`
	// QuarantinedCorrupt counts samples refused for an impossible reading
	// (NaN, negative, or above full utilization).
	QuarantinedCorrupt int64 `json:"quarantinedCorrupt"`
	// QuarantinedLate counts samples refused because their step was
	// already folded past (lateness beyond MaxLatenessSteps) or violated
	// batch ordering.
	QuarantinedLate int64 `json:"quarantinedLate"`
	// GapsFilled counts synthesized samples (carry or interpolate).
	GapsFilled int64 `json:"gapsFilled"`
	// GapsSkipped counts missing samples left unfilled under GapSkip.
	GapsSkipped int64 `json:"gapsSkipped"`
	// WatermarkLag is the current distance in steps between the newest
	// delivered batch and the fold watermark.
	WatermarkLag int `json:"watermarkLag"`
}

// Ingestor consumes StepBatch events and maintains a continuously refreshed
// knowledge base. All exported read methods return consistent snapshots
// while ingestion runs; ingestion and profile folding serialize on one
// writer lock.
//
// Input need not be clean: samples are re-ordered through a bounded
// watermark ring, duplicates are dropped per VM, corrupt readings are
// quarantined, and per-VM gaps are repaired by the configured GapPolicy.
// See DESIGN.md §8 for the fault model.
type Ingestor struct {
	tr           *trace.Trace
	keys         *trace.KeyTable
	opts         Options
	family       core.Family
	patterns     []core.Pattern // the family's taxonomy, in tie-break order
	lags         lagSet
	clOpts       classify.Options
	invOpts      classify.InvocationOptions
	minACF       float64
	snapStep     int
	stepsPerHour int
	minSteps     int
	met          *ingestMetrics

	// shard is the ingestor's position in a sharded group (0 when it is
	// the whole pipeline). selfFold is false for shard members: the group
	// rebuilds the published store at the hour barrier instead, so each
	// shard only maintains accumulators.
	shard    int
	selfFold bool

	mu       sync.RWMutex
	store    *kb.Store
	subs     []*subState // indexed by interned subscription id
	accs     []*vmAcc
	retired  []bool
	clouds   map[core.Cloud]*cloudState
	flushBuf []float32
	recycle  func(StepBatch)

	// Fold scratch, written only under the write lock and reused by every
	// fold: the candidate references of the subscription being built, its
	// per-pattern counts (indexed by core.Pattern), the populated regions
	// and their hourly averages for the region-agnosticism score, and the
	// profile set a lone ingestor hands to its store.
	foldRefs     []foldRef
	foldCounts   []int
	foldRegions  []namedRegion
	foldAvgs     []float64
	foldProfiles []*kb.Profile

	// watermark is the newest step already folded; slots hold the steps
	// still in flight, indexed by step modulo len(slots).
	watermark int
	slots     []reorderSlot
	faults    FaultStats

	lastStep        atomic.Int64
	samplesIngested atomic.Int64
	stepsIngested   atomic.Int64
	foldCount       atomic.Int64
	done            atomic.Bool

	// Columnar-batch vitals (GET /api/v1/live/ingest): how many owned
	// column sets folded, how many samples they carried, and the fill
	// ratio of their backing arrays (len over cap at fold — low fill means
	// the pool's buffers are sized for a larger active set than the
	// current one).
	colBatchesFolded atomic.Int64
	colSamplesFolded atomic.Int64
	colLenSum        atomic.Int64
	colCapSum        atomic.Int64
}

// NewIngestor returns an empty ingestor for the trace's universe.
func NewIngestor(tr *trace.Trace, opts Options) *Ingestor {
	return newIngestorWith(tr, opts, defaultIngestMetrics, true, 0)
}

// newIngestorWith is NewIngestor with the shard wiring exposed: the metric
// set the ingestor reports through, whether it publishes its own folds, and
// its shard id.
func newIngestorWith(tr *trace.Trace, opts Options, met *ingestMetrics, selfFold bool, shard int) *Ingestor {
	stepsPerHour := tr.Grid.StepsPerHour()
	opts = opts.withDefaults(stepsPerHour)
	keys := tr.Keys()
	ing := &Ingestor{
		tr:           tr,
		keys:         keys,
		opts:         opts,
		family:       tr.Family,
		patterns:     tr.Family.Patterns(),
		lags:         newLagSet(stepsPerHour),
		clOpts:       classify.Options{StepsPerHour: stepsPerHour},
		invOpts:      classify.InvocationOptions{StepsPerHour: stepsPerHour}.WithDefaults(),
		minACF:       periodic.DefaultMinACF,
		snapStep:     tr.SnapshotStep(),
		stepsPerHour: stepsPerHour,
		minSteps:     kb.MinProfileStepsFor(tr.Grid),
		met:          met,
		shard:        shard,
		selfFold:     selfFold,
		store:        kb.NewStore(),
		subs:         make([]*subState, len(keys.Subs)),
		accs:         make([]*vmAcc, len(tr.VMs)),
		retired:      make([]bool, len(tr.VMs)),
		clouds:       make(map[core.Cloud]*cloudState),
		foldCounts:   make([]int, len(mClassified)),
		watermark:    opts.StartStep - 1,
		slots:        make([]reorderSlot, opts.MaxLatenessSteps+1),
	}
	ing.lastStep.Store(int64(opts.StartStep) - 1)
	for _, c := range core.Clouds() {
		ing.clouds[c] = &cloudState{util: sketch.NewHistogram(0, 1, cloudBins)}
	}
	return ing
}

// KB returns the live knowledge base. The store is itself thread-safe; its
// profiles are refreshed in place at every fold.
func (ing *Ingestor) KB() *kb.Store { return ing.store }

// ObserveBatch accepts one delivered batch: the sample columns are
// corrupt-filtered in place with one branch-light pass over the contiguous
// float32 column and parked in the reorder ring under the batch's step
// (zero-copy — the columns are stolen), row-form Late samples are buffered
// under their own Step, the batch's lifecycle deletions queue behind that
// step's samples, and the watermark advances to b.Step - MaxLatenessSteps,
// folding every step it passes in order. Batch Steps must be
// non-decreasing; Late sample Steps may lag within the lateness bound.
//
// The ingestor takes ownership of b.VM and b.CPU and hands them back
// through the recycler once their slot folds; b.Late is consumed
// synchronously and recycled before ObserveBatch returns. The caller must
// not Recycle or retain any of them.
func (ing *Ingestor) ObserveBatch(b StepBatch) {
	ing.mu.Lock()
	// A batch-step jump (or a source that skips steps entirely) may leave
	// slots the ring is about to need; retire them first so every slot in
	// (b.Step - len(slots), b.Step] is free or current.
	ing.advanceLocked(b.Step - len(ing.slots))
	nSamples := b.NumSamples()
	// Compact the columns over the quarantine filter in place: the
	// re-slicing below lets the compiler hoist both bounds checks, so the
	// clean-path cost is one float32 compare per sample on a contiguous
	// column.
	vm := b.VM
	cpu := b.CPU[:len(vm)]
	w := 0
	for i, c := range cpu {
		if !(c >= 0 && c <= 1) { // comparisons are false for NaN
			ing.faults.QuarantinedCorrupt++
			ing.met.quarantinedCorrupt.Inc()
			continue
		}
		vm[w] = vm[i]
		cpu[w] = c
		w++
	}
	if len(b.VM) > 0 {
		slot := ing.slotFor(b.Step)
		switch {
		case len(slot.extras) > 0:
			// Strays (or a previous duplicate batch) already wait in row
			// form; materialize these columns behind them so fold order
			// stays arrival order, and free the delivered columns.
			for i := 0; i < w; i++ {
				slot.extras = append(slot.extras, Sample{VM: vm[i], Step: int32(b.Step), CPU: float64(cpu[i])})
			}
			ing.recycleBatch(StepBatch{VM: b.VM, CPU: b.CPU})
		case slot.vm != nil:
			// A duplicate batch step with columns already parked: append
			// and free the delivered columns.
			slot.vm = append(slot.vm, vm[:w]...)
			slot.cpu = append(slot.cpu, cpu[:w]...)
			ing.recycleBatch(StepBatch{VM: b.VM, CPU: b.CPU})
		default:
			// The common case: steal the delivered columns zero-copy. The
			// full backing arrays are retained (not the compacted prefix)
			// so fold recycles the source's original buffers.
			slot.vm = b.VM[:w]
			slot.cpu = b.CPU[:w]
			slot.owned = true
		}
	}
	for _, s := range b.Late {
		if !(s.CPU >= 0 && s.CPU <= 1) {
			ing.faults.QuarantinedCorrupt++
			ing.met.quarantinedCorrupt.Inc()
			continue
		}
		if int(s.Step) == b.Step {
			// Row-form but on time; join the batch step's slot behind its
			// columns — still arrival order — without counting as
			// reordered.
			ing.slotFor(b.Step).extras = append(ing.slotFor(b.Step).extras, s)
			continue
		}
		ing.placeLocked(b.Step, s)
	}
	if len(b.Deleted) > 0 {
		slot := ing.slotFor(b.Step)
		slot.deleted = append(slot.deleted, b.Deleted...)
	}
	ing.advanceLocked(b.Step - ing.opts.MaxLatenessSteps)
	lag := b.Step - ing.watermark
	ing.mu.Unlock()

	if len(b.Late) > 0 {
		ing.recycleBatch(StepBatch{Late: b.Late})
	}
	ing.lastStep.Store(int64(b.Step))
	ing.met.watermarkLag.SetInt(lag)
	if b.Step < ing.tr.Grid.N {
		ing.stepsIngested.Add(1)
		ing.samplesIngested.Add(int64(nSamples))
		ing.met.steps.Inc()
		ing.met.samples.Add(int64(nSamples))
	}
}

// placeLocked buffers one valid sample whose Step diverges from its batch.
// Readings older than the watermark (lateness beyond the bound) or claiming
// a future step are quarantined; the rest count as reordered and wait in
// their own step's slot.
func (ing *Ingestor) placeLocked(batchStep int, s Sample) {
	step := int(s.Step)
	if step <= ing.watermark || step > batchStep {
		ing.faults.QuarantinedLate++
		ing.met.quarantinedLate.Inc()
		return
	}
	ing.faults.Reordered++
	ing.met.reordered.Inc()
	slot := ing.slotFor(step)
	slot.extras = append(slot.extras, s)
}

// recycleBatch returns spent batch buffers to the source's free lists.
func (ing *Ingestor) recycleBatch(b StepBatch) {
	if ing.recycle != nil {
		ing.recycle(b)
	}
}

// SetRecycler registers the function spent batch buffers are handed back
// through once their slot folds (the pipeline points it at the source's
// free lists). It must be called before ingestion starts.
func (ing *Ingestor) SetRecycler(f func(StepBatch)) { ing.recycle = f }

// slotFor returns the ring slot owning a step in (watermark, watermark +
// len(slots)], initializing it on first touch. Callers guarantee the range
// via advanceLocked.
func (ing *Ingestor) slotFor(step int) *reorderSlot {
	slot := &ing.slots[step%len(ing.slots)]
	if !slot.valid {
		slot.valid = true
		slot.step = step
	}
	return slot
}

// advanceLocked moves the watermark up to the target step, folding each
// buffered slot it passes in step order and running the periodic
// knowledge-base fold at its configured cadence. Steps with no buffered
// slot (an entirely dropped batch) advance the watermark silently; the gap
// policy repairs the affected VMs when their next sample folds.
func (ing *Ingestor) advanceLocked(target int) {
	for ing.watermark < target {
		next := ing.watermark + 1
		slot := &ing.slots[next%len(ing.slots)]
		if slot.valid && slot.step == next {
			ing.foldSlotLocked(slot)
		}
		ing.watermark = next
		if ing.selfFold && ing.opts.FoldEverySteps > 0 && next > 0 && next%ing.opts.FoldEverySteps == 0 {
			ing.timedFoldLocked(next)
		}
	}
}

// foldSlotLocked folds one ready slot: its sample columns in delivery
// order (one pass over the contiguous float32 column, bounds checks
// hoisted by the re-slice), then its row-form extras, then its lifecycle
// deletions, then the slot resets for reuse (buffers kept, stolen columns
// recycled to the source).
func (ing *Ingestor) foldSlotLocked(slot *reorderSlot) {
	vm := slot.vm
	cpu := slot.cpu[:len(vm)]
	for i, idx := range vm {
		ing.ingestLocked(idx, slot.step, float64(cpu[i]))
	}
	for _, s := range slot.extras {
		ing.ingestLocked(s.VM, slot.step, s.CPU)
	}
	for _, idx := range slot.deleted {
		ing.retire(idx)
	}
	if slot.owned {
		ing.colBatchesFolded.Add(1)
		ing.colSamplesFolded.Add(int64(len(slot.vm)))
		ing.colLenSum.Add(int64(len(slot.vm)))
		ing.colCapSum.Add(int64(cap(slot.vm)))
		ing.recycleBatch(StepBatch{VM: slot.vm, CPU: slot.cpu})
	}
	slot.valid = false
	slot.owned = false
	slot.vm = nil
	slot.cpu = nil
	slot.extras = slot.extras[:0]
	slot.deleted = slot.deleted[:0]
}

// ingestLocked folds one in-order sample into a VM's series, deduplicating
// against the step the series expects next and repairing any gap before it
// per the configured policy.
func (ing *Ingestor) ingestLocked(idx int32, step int, cpu float64) {
	acc := ing.accs[idx]
	if acc == nil {
		if ing.retired[idx] {
			// A sample surfacing after its VM's deletion event folded; the
			// series is closed, so it can only be refused.
			ing.faults.QuarantinedLate++
			ing.met.quarantinedLate.Inc()
			return
		}
		acc = ing.track(idx)
	}
	if !acc.seen {
		acc.seen = true
		acc.from = step
	} else if step < acc.next {
		ing.faults.DuplicatesDropped++
		ing.met.duplicates.Inc()
		return
	} else if gap := step - acc.next; gap > 0 {
		switch ing.opts.GapPolicy {
		case GapSkip:
			if !acc.qualified {
				for m := acc.next; m < step; m++ {
					acc.gapSteps = append(acc.gapSteps, int32(m))
				}
			}
			ing.faults.GapsSkipped += int64(gap)
		case GapInterpolate:
			for k := 1; k <= gap; k++ {
				v := acc.last + (cpu-acc.last)*float64(k)/float64(gap+1)
				ing.applySample(acc, acc.next+k-1, v)
			}
			ing.faults.GapsFilled += int64(gap)
			ing.met.gapsFilled.Add(int64(gap))
		default: // GapCarry
			for m := acc.next; m < step; m++ {
				ing.applySample(acc, m, acc.last)
			}
			ing.faults.GapsFilled += int64(gap)
			ing.met.gapsFilled.Add(int64(gap))
		}
	}
	ing.applySample(acc, step, cpu)
	acc.next = step + 1
	acc.last = cpu
}

// applySample feeds one accepted (or synthesized) sample into the VM's
// accumulators, including the platform-snapshot census when the sample's
// step is the snapshot step.
func (ing *Ingestor) applySample(acc *vmAcc, step int, cpu float64) {
	ing.observe(acc, step, cpu)
	if step == ing.snapStep {
		acc.sub.snapshotVMs++
		acc.sub.snapshotCores += acc.v.Size.Cores
	}
}

// IngestVital is one ingestion shard's columnar-batch vitals, served by
// GET /api/v1/live/ingest: how many owned column sets folded and how many
// samples they carried, the mean fill ratio of their backing arrays, the
// reorder ring's occupancy, and — filled in by the pipeline or shard
// router — the column pool's allocation ledger.
type IngestVital struct {
	Shard int `json:"shard"`
	// BatchesFolded counts owned column sets recycled at fold.
	BatchesFolded int64 `json:"batchesFolded"`
	// ColumnSamples counts the samples those columns carried.
	ColumnSamples int64 `json:"columnSamples"`
	// FillRatio is mean(len/cap) of folded columns: low fill means the
	// pool's buffers are sized for a larger active set than the current
	// one.
	FillRatio float64 `json:"fillRatio"`
	// RingOccupancy and RingSlots describe the reorder ring: slots holding
	// buffered steps versus its capacity (MaxLatenessSteps + 1).
	RingOccupancy int `json:"ringOccupancy"`
	RingSlots     int `json:"ringSlots"`
	// Watermark is the newest step already folded.
	Watermark int `json:"watermark"`
	// Pool is the column free-list ledger of this shard's feed.
	Pool ColPoolStats `json:"pool"`
}

// ingestVital assembles this ingestor's vitals; the pool ledger is the
// caller's to attach (it lives with whoever owns the free list).
func (ing *Ingestor) ingestVital() IngestVital {
	ing.mu.RLock()
	occ := 0
	for i := range ing.slots {
		if ing.slots[i].valid {
			occ++
		}
	}
	wm := ing.watermark
	ing.mu.RUnlock()
	v := IngestVital{
		Shard:         ing.shard,
		BatchesFolded: ing.colBatchesFolded.Load(),
		ColumnSamples: ing.colSamplesFolded.Load(),
		RingOccupancy: occ,
		RingSlots:     len(ing.slots),
		Watermark:     wm,
	}
	if capSum := ing.colCapSum.Load(); capSum > 0 {
		v.FillRatio = float64(ing.colLenSum.Load()) / float64(capSum)
	}
	return v
}

// IngestVitals implements Engine: a single-ingestor pipeline is one shard.
func (ing *Ingestor) IngestVitals() []IngestVital {
	return []IngestVital{ing.ingestVital()}
}

// FaultStats returns the ledger of input imperfections observed so far.
func (ing *Ingestor) FaultStats() FaultStats {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	fs := ing.faults
	if lag := int(ing.lastStep.Load()) - ing.watermark; lag > 0 {
		fs.WatermarkLag = lag
	}
	return fs
}

// Finish drains the reorder ring and folds the remaining state once the
// stream ends.
func (ing *Ingestor) Finish() {
	ing.mu.Lock()
	ing.advanceLocked(ing.watermark + len(ing.slots))
	if ing.selfFold {
		ing.timedFoldLocked(ing.tr.Grid.N)
	}
	ing.mu.Unlock()
	ing.done.Store(true)
}

// Abort implements Engine. A lone ingestor has no goroutines of its own to
// stop; cancellation just leaves the last folded state standing.
func (ing *Ingestor) Abort() {}

// timedFoldLocked runs a fold under the write lock, brackets it with the
// configured FoldObserver (step labels the fold boundary in grid steps),
// and records its wall-clock duration.
func (ing *Ingestor) timedFoldLocked(step int) {
	start := time.Now()
	if step > ing.tr.Grid.N {
		// Draining the reorder ring at Finish can cross fold boundaries
		// past the end of the grid; clamp so published step labels match
		// the sharded path, which never folds beyond Grid.N.
		step = ing.tr.Grid.N
	}
	if ob := ing.opts.FoldObserver; ob != nil {
		ob.FoldBegin()
	}
	ing.foldLocked()
	if ob := ing.opts.FoldObserver; ob != nil {
		ob.FoldPublished(step)
	}
	ing.met.foldSeconds.Observe(time.Since(start).Seconds())
}

// track starts accumulating a newly seen VM.
func (ing *Ingestor) track(idx int32) *vmAcc {
	v := &ing.tr.VMs[idx]
	si := ing.keys.SubOf[idx]
	ss := ing.subs[si]
	if ss == nil {
		ss = &subState{
			id:          v.Subscription,
			cloud:       v.Cloud,
			regions:     make(map[string]bool),
			services:    make(map[string]bool),
			util:        sketch.NewHistogram(0, 1, subBins),
			regionHours: make([]*regionHour, len(ing.keys.Regions)),
		}
		ing.subs[si] = ss
	}
	ss.vmsObserved++
	ss.regions[v.Region] = true
	ss.services[v.Service] = true
	ing.clouds[v.Cloud].vmsSeen++
	// from is assigned when the first sample folds (ingestLocked): under a
	// faulty collector the first delivered step, not the creation step, is
	// where the observed series starts.
	acc := &vmAcc{
		idx: idx,
		v:   v,
		sub: ss,
		ac:  sketch.NewAutoCorr(ing.lags.all...),
	}
	ing.accs[idx] = acc
	return acc
}

// observe folds one sample into a VM's accumulators.
func (ing *Ingestor) observe(acc *vmAcc, step int, cpu float64) {
	acc.ac.Add(cpu)
	if ing.family == core.FamilyServerless {
		// Invocation-rate evidence: running peak and idle share, matching
		// classify.ClassifyInvocation's accumulators over the same samples.
		if cpu > acc.peakMax {
			acc.peakMax = cpu
		}
		if cpu < ing.invOpts.IdleEps {
			acc.idleN++
		}
	} else if classify.AlignedSlot((step-acc.from)%ing.stepsPerHour, ing.stepsPerHour) {
		// Slot alignment is relative to the series origin, matching the
		// batch classifier's index convention over a materialized series.
		// Under GapSkip the observed-sample count drifts from the true step
		// offset after every hole, so the slot must derive from the step
		// itself.
		acc.peakSum += cpu
		acc.peakN++
	} else {
		acc.restSum += cpu
		acc.restN++
	}
	ing.clouds[acc.v.Cloud].samples++
	if !acc.qualified {
		if acc.ac.N() >= ing.minSteps {
			ing.qualify(acc)
		}
		return
	}
	h := ing.tr.Grid.HourOf(step) % 24
	acc.hourly[h] += cpu
	acc.hourlyN[h]++
	acc.sub.util.Add(cpu)
	ing.clouds[acc.v.Cloud].util.Add(cpu)
	if step%ing.stepsPerHour == 0 {
		acc.sub.addRegionHour(ing.keys.RegionOf[acc.idx], ing.tr.Grid.HourOf(step), cpu, ing.tr.Grid.Hours())
	}
}

// qualify promotes a VM that has reached a day of history: every retained
// sample (the autocorrelation ring still holds the complete series at this
// point, since the qualification threshold is below its largest lag) is
// flushed into the per-hour, per-subscription, and per-cloud aggregates
// that only profiled VMs contribute to.
func (ing *Ingestor) qualify(acc *vmAcc) {
	acc.qualified = true
	acc.sub.qualified = append(acc.sub.qualified, acc.idx)
	vals := acc.ac.RetainedRaw(ing.flushBuf[:0])
	g := ing.tr.Grid
	cs := ing.clouds[acc.v.Cloud]
	// Under GapSkip the ring is compacted: the i-th retained sample is not
	// necessarily at from+i. Walk the recorded holes to restore each
	// sample's true step, or every post-gap sample lands in the wrong
	// hour bucket and the wrong reading is picked as the top-of-hour
	// region sample (found by the differential gauntlet as a
	// region-agnosticism drift on drop+skip trials).
	step := acc.from
	gi := 0
	for _, raw := range vals {
		for gi < len(acc.gapSteps) && int(acc.gapSteps[gi]) == step {
			step++
			gi++
		}
		x := float64(raw)
		h := g.HourOf(step) % 24
		acc.hourly[h] += x
		acc.hourlyN[h]++
		if step%ing.stepsPerHour == 0 {
			acc.sub.addRegionHour(ing.keys.RegionOf[acc.idx], g.HourOf(step), x, g.Hours())
		}
		step++
	}
	// Histogram folds are pure bin counts, so the whole retained series
	// lands in the subscription and cloud sketches as two bulk column
	// passes — bit-identical to sample-at-a-time adds, order-free.
	acc.sub.util.ObserveAll(vals)
	cs.util.ObserveAll(vals)
	acc.gapSteps = nil
	ing.flushBuf = vals[:0]
}

// retire finalizes a VM whose deletion event arrived.
func (ing *Ingestor) retire(idx int32) {
	ing.retired[idx] = true
	acc := ing.accs[idx]
	if acc == nil {
		return
	}
	ing.accs[idx] = nil
	ss := acc.sub
	v := acc.v
	if v.CreatedStep >= 0 && v.DeletedStep <= ing.tr.Grid.N {
		lifeMin := float64(v.LifetimeSteps()) * ing.tr.Grid.Step.Minutes()
		ss.lifetimes = append(ss.lifetimes, lifeMin)
		if lifeMin < float64(ing.opts.ShortBinMinutes) {
			ss.shortLived++
		}
	}
	if acc.qualified {
		ss.retired = append(ss.retired, ing.record(acc))
		q := ss.qualified
		q[slices.Index(q, idx)] = q[len(q)-1]
		ss.qualified = q[:len(q)-1]
	}
}

// record compacts a qualified VM's accumulators into a fold candidate,
// classifying its pattern from the streaming evidence.
func (ing *Ingestor) record(acc *vmAcc) classifiedVM {
	p := ing.classifyAcc(acc)
	mClassified[p].Inc()
	return classifiedVM{
		idx:     acc.idx,
		pattern: p,
		utilSum: acc.ac.Mean() * float64(acc.ac.N()),
		n:       acc.ac.N(),
		hourly:  acc.hourly,
		hourlyN: acc.hourlyN,
	}
}

// classifyAcc is the incremental counterpart of the family's batch
// classifier: the same evidence assembled from streaming accumulators
// instead of a materialized series, then mapped through the shared Decide
// thresholds.
//
// The serverless branch uses the raw daily autocorrelation (AutoCorr.At),
// exactly as classify.ClassifyInvocation does — not the hill-validated ACF
// of the CPU branch — so batch and stream compute identical evidence.
func (ing *Ingestor) classifyAcc(acc *vmAcc) core.Pattern {
	if ing.family == core.FamilyServerless {
		n := acc.ac.N()
		var idleShare float64
		if n > 0 {
			idleShare = float64(acc.idleN) / float64(n)
		}
		res := classify.InvocationEvidence(acc.ac.Mean(), acc.ac.StdDev(),
			acc.peakMax, idleShare, acc.ac.At(ing.lags.day))
		return res.Decide(ing.invOpts)
	}
	res := classify.Result{StdDev: acc.ac.StdDev()}
	res.DailyACF = ing.validatedACF(acc.ac, ing.lags.day)
	res.HourlyACF = ing.validatedACF(acc.ac, ing.lags.hour)
	if half := ing.lags.halfHour; half >= 2 {
		if v := ing.validatedACF(acc.ac, half); v > res.HourlyACF {
			res.HourlyACF = v
		}
	}
	if acc.peakN > 0 && acc.restN > 0 {
		peakMean := acc.peakSum / float64(acc.peakN)
		restMean := acc.restSum / float64(acc.restN)
		res.HourAligned = peakMean > restMean+classify.AlignedMargin
	}
	return res.Decide(ing.clOpts)
}

// validatedACF mirrors the AUTOPERIOD acceptance rules at a fixed target
// lag: the period must repeat at least twice in the observed span, clear
// the minimum-ACF bar, and sit on an ACF hill (its value exceeds the ACF
// half a period away on the sides that lie inside the valid lag range).
func (ing *Ingestor) validatedACF(ac *sketch.AutoCorr, lag int) float64 {
	n := ac.N()
	if lag < 2 || n < 2*lag {
		return 0
	}
	v := ac.At(lag)
	if v < ing.minACF {
		return 0
	}
	half := lag / 2
	if half >= 1 {
		if ac.At(lag-half) >= v {
			return 0
		}
		if right := lag + half; right <= n/2 && ac.At(right) >= v {
			return 0
		}
	}
	return v
}

// foldLocked refreshes every subscription's live profile in the knowledge
// base, publishing the whole set as one store write. Callers hold the write
// lock.
func (ing *Ingestor) foldLocked() {
	ing.foldProfiles = ing.appendProfilesLocked(ing.foldProfiles[:0])
	ing.store.Put(ing.foldProfiles...)
	ing.foldCount.Add(1)
}

// foldInto appends this ingestor's subscriptions' profiles to dst — the
// hour-barrier merge path of a sharded pipeline, which publishes every
// shard's profiles in one store write. The subscriptions of one trace
// partition across shards, so each profile has exactly one writer and the
// merged store equals the single-ingestor fold. A fold writes the
// ingestor's scratch and caches, hence the write lock; the shard is parked
// at the barrier, so only readers can hold it.
func (ing *Ingestor) foldInto(dst []*kb.Profile) []*kb.Profile {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.appendProfilesLocked(dst)
}

// appendProfilesLocked builds a fresh profile for every observed
// subscription, in interned-id order, and appends them to dst. The profiles
// share one allocation: a fold replaces all of them, so they also die
// together. Callers hold the write lock.
func (ing *Ingestor) appendProfilesLocked(dst []*kb.Profile) []*kb.Profile {
	n := 0
	for _, ss := range ing.subs {
		if ss != nil {
			n++
		}
	}
	slab := make([]kb.Profile, n)
	for _, ss := range ing.subs {
		if ss != nil {
			ing.buildProfile(ss, &slab[0])
			dst = append(dst, &slab[0])
			slab = slab[1:]
		}
	}
	return dst
}

// buildProfile assembles a kb.Profile from a subscription's streaming
// state into p, mirroring the batch extractor's aggregation rules
// (including its per-subscription classification cap, applied in VM order
// so the live profile converges to the batch one at window end). It does
// the work the hour changed and no more: candidates are selected by
// reference and cut to the cap before any live VM is classified, and what
// only lifecycle events change comes from the subscription's caches.
func (ing *Ingestor) buildProfile(ss *subState, p *kb.Profile) {
	ss.regionNames = sortedNames(ss.regionNames, ss.regions)
	ss.serviceNames = sortedNames(ss.serviceNames, ss.services)
	*p = kb.Profile{
		Subscription:        ss.id,
		Cloud:               ss.cloud,
		Family:              ing.family,
		Regions:             ss.regionNames,
		Services:            ss.serviceNames,
		VMsObserved:         ss.vmsObserved,
		SnapshotVMs:         ss.snapshotVMs,
		SnapshotCores:       ss.snapshotCores,
		RegionAgnosticScore: -1,
		PeakHourUTC:         -1,
	}
	if len(ss.lifetimes) > 0 {
		p.MedianLifetimeMin = ss.medianLifetimeMin()
		p.ShortLivedShare = float64(ss.shortLived) / float64(len(ss.lifetimes))
	}

	refs := ing.foldRefs[:0]
	for i := range ss.retired {
		refs = append(refs, foldRef{idx: ss.retired[i].idx, retired: int32(i)})
	}
	for _, idx := range ss.qualified {
		refs = append(refs, foldRef{idx: idx, retired: -1})
	}
	ing.foldRefs = refs
	slices.SortFunc(refs, func(a, b foldRef) int { return cmp.Compare(a.idx, b.idx) })
	if len(refs) > ing.opts.MaxClassifyPerSub {
		refs = refs[:ing.opts.MaxClassifyPerSub]
	}

	counts := ing.foldCounts
	clear(counts)
	var utilSum float64
	var utilN int
	var hourly [24]float64
	var hourlyN [24]float64
	for _, ref := range refs {
		// Read the candidate where it lives: same operands in the same idx
		// order as folding compacted classifiedVM copies, so every sum
		// carries the same bits.
		var (
			pat  core.Pattern
			sum  float64
			n    int
			hSum *[24]float64
			hN   *[24]int
		)
		if ref.retired >= 0 {
			c := &ss.retired[ref.retired]
			pat, sum, n, hSum, hN = c.pattern, c.utilSum, c.n, &c.hourly, &c.hourlyN
		} else {
			acc := ing.accs[ref.idx]
			pat = ing.classifyAcc(acc)
			mClassified[pat].Inc()
			n = acc.ac.N()
			sum, hSum, hN = acc.ac.Mean()*float64(n), &acc.hourly, &acc.hourlyN
		}
		counts[pat]++
		utilSum += sum
		utilN += n
		for h := 0; h < 24; h++ {
			hourly[h] += hSum[h]
			hourlyN[h] += float64(hN[h])
		}
	}

	// Every counted pattern becomes a share of the classified count — the
	// batch extractor's normalisation — while the dominant pick walks the
	// family's taxonomy order so ties resolve as they do there.
	distinct := 0
	for _, c := range counts {
		if c > 0 {
			distinct++
		}
	}
	p.PatternShares = make(map[core.Pattern]float64, distinct)
	if len(refs) > 0 {
		for pat, c := range counts {
			if c > 0 {
				p.PatternShares[core.Pattern(pat)] = float64(c) / float64(len(refs))
			}
		}
		best := core.PatternUnknown
		for _, k := range ing.patterns {
			// Shares are counts over one divisor, so counts order them.
			if counts[k] > 0 && (best == core.PatternUnknown || counts[k] > counts[best]) {
				best = k
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
		p.RegionAgnosticScore = ing.regionAgnosticScore(ss)
	}
}

// regionAgnosticScore is the mean pairwise Pearson correlation of the
// subscription's region-averaged top-of-hour utilization, matching the
// batch computation over the hours observed so far. It works in the
// ingestor's fold scratch and allocates nothing.
func (ing *Ingestor) regionAgnosticScore(ss *subState) float64 {
	// Collect the populated regions and order them by name, matching the
	// batch extractor's iteration order so the pairwise sum accumulates in
	// the same sequence bit for bit. Insertion sort: region counts are tiny.
	regions := ing.foldRegions[:0]
	for ri, rh := range ss.regionHours {
		if rh != nil {
			regions = append(regions, namedRegion{ing.keys.Regions[ri], rh})
		}
	}
	ing.foldRegions = regions
	if len(regions) < 2 {
		return -1
	}
	for i := 1; i < len(regions); i++ {
		for j := i; j > 0 && regions[j].name < regions[j-1].name; j-- {
			regions[j], regions[j-1] = regions[j-1], regions[j]
		}
	}
	hours := ing.tr.Grid.Hours()
	avgs := slices.Grow(ing.foldAvgs[:0], len(regions)*hours)[:len(regions)*hours]
	ing.foldAvgs = avgs
	row := func(i int) []float64 { return avgs[i*hours : (i+1)*hours] }
	for i, r := range regions {
		avg := row(i)
		for h := range avg {
			avg[h] = 0
			if r.rh.n[h] > 0 {
				avg[h] = r.rh.sum[h] / r.rh.n[h]
			}
		}
	}
	var sum float64
	var n int
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			sum += stats.Pearson(row(i), row(j))
			n++
		}
	}
	return sum / float64(n)
}

func mean(sum, n float64) float64 {
	if n == 0 {
		return 0
	}
	return sum / n
}

func sortedKeys[V any](set map[string]V) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CloudLive is one platform's live aggregate: the knowledge-base summary of
// the latest fold plus stream counters and sketch-estimated utilization
// quantiles over the samples of profiled (day-plus) VMs.
type CloudLive struct {
	kb.Summary
	SamplesIngested int64   `json:"samplesIngested"`
	VMsSeen         int64   `json:"vmsSeen"`
	UtilP50         float64 `json:"utilP50"`
	UtilP95         float64 `json:"utilP95"`
}

// Summary is the incremental characterization snapshot served by
// /api/v1/live/summary.
type Summary struct {
	Step   int                  `json:"step"`
	Steps  int                  `json:"steps"`
	Done   bool                 `json:"done"`
	Clouds map[string]CloudLive `json:"clouds"`
}

// Summary returns a consistent snapshot of the live aggregates.
func (ing *Ingestor) Summary() Summary {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	out := Summary{
		Step:   int(ing.lastStep.Load()),
		Steps:  ing.tr.Grid.N,
		Done:   ing.done.Load(),
		Clouds: make(map[string]CloudLive, len(ing.clouds)),
	}
	for _, c := range core.Clouds() {
		cs := ing.clouds[c]
		out.Clouds[c.String()] = CloudLive{
			Summary:         ing.store.Summarize(c),
			SamplesIngested: cs.samples,
			VMsSeen:         cs.vmsSeen,
			UtilP50:         cs.util.Quantile(0.5),
			UtilP95:         cs.util.Quantile(0.95),
		}
	}
	return out
}

// LiveProfile is a knowledge-base profile augmented with streaming-only
// knowledge: sketch-estimated utilization quantiles and stream counters.
type LiveProfile struct {
	kb.Profile
	UtilP50      float64 `json:"utilP50"`
	UtilP95      float64 `json:"utilP95"`
	QualifiedVMs int     `json:"qualifiedVMs"`
	Samples      int64   `json:"samples"`
}

// Profiles lists live profiles matching the query, sorted by subscription.
func (ing *Ingestor) Profiles(q kb.Query) []LiveProfile {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	list := ing.store.List(q)
	out := make([]LiveProfile, 0, len(list))
	for _, p := range list {
		out = append(out, ing.liveProfileLocked(p))
	}
	return out
}

// Profile returns one subscription's live profile.
func (ing *Ingestor) Profile(id core.SubscriptionID) (LiveProfile, bool) {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	p, ok := ing.store.Get(id)
	if !ok {
		return LiveProfile{}, false
	}
	return ing.liveProfileLocked(p), true
}

// liveProfile augments one published profile with this ingestor's
// streaming-only knowledge, taking the read lock itself — the shard group's
// per-profile path.
func (ing *Ingestor) liveProfile(p *kb.Profile) LiveProfile {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	return ing.liveProfileLocked(p)
}

// subFor resolves a subscription ID to its streaming state, or nil when the
// subscription is unknown or not yet observed.
func (ing *Ingestor) subFor(id core.SubscriptionID) *subState {
	si, ok := ing.keys.SubIndex(id)
	if !ok {
		return nil
	}
	return ing.subs[si]
}

func (ing *Ingestor) liveProfileLocked(p *kb.Profile) LiveProfile {
	lp := LiveProfile{Profile: *p}
	if ss := ing.subFor(p.Subscription); ss != nil {
		lp.UtilP50 = ss.util.Quantile(0.5)
		lp.UtilP95 = ss.util.Quantile(0.95)
		lp.Samples = ss.util.Count()
		lp.QualifiedVMs = len(ss.retired) + len(ss.qualified)
	}
	return lp
}
