package stream

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cloudlens/internal/classify"
	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/parallel"
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

// vmAcc is the per-VM streaming state: an autocorrelation sketch over the
// lags the trace family's classify.Rules read (which doubles as mean/variance
// tracking and a ring of the most recent samples, as many as the largest
// lag: a day and a half for CPU, one day for serverless), the
// family's classify.Evidence, and — once the VM has a day of history and
// qualifies for profiling — per-UTC-hour utilization sums.
//
// The fields are laid out hot-first: everything observe touches for every
// sample — the subscription-sketch handle, the ordering state, the evidence,
// and the embedded sketch's moments and deferred block — sits in the
// first three cache lines (TestVMAccLayout holds it there, and the struct
// in its 896-byte size class). The sketch is held by value for the same
// reason: its moments are reached through the accumulator's own lines
// instead of a pointer to a second heap object for every VM of a step.
type vmAcc struct {
	// util counts a qualified sample into sub.util without loading sub or
	// the sketch header first.
	util sketch.Counter
	// cs is the platform aggregate of v.Cloud, resolved once so the
	// per-sample path does no map lookup.
	cs   *cloudState
	from int

	// Ordering state: next is the grid step the VM's series expects next
	// (deduplication and gap detection key off it), last the most recent
	// accepted utilization (the carry/interpolate gap fills' anchor). seen
	// distinguishes "no sample yet" from "expects step 0".
	next int
	last float64

	classify.Evidence

	seen      bool
	qualified bool
	idx       int32
	ac        sketch.AutoCorr

	v       *trace.VM
	sub     *subState
	hourly  [24]float64
	hourlyN [24]int

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
	regionHours []*kb.RegionHours

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

func (ss *subState) addRegionHour(region int32, hour int, x float64, hours int) {
	rh := ss.regionHours[region]
	if rh == nil {
		rh = new(kb.RegionHours)
		ss.regionHours[region] = rh
	}
	rh.Add(hour, hours, x)
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

// Ingestor is one shard of the ingestion engine: it consumes the StepBatch
// events routed to it and keeps the streaming accumulators of the
// subscriptions it owns, from which the engine builds the published
// profiles at each fold. Ingestion and profile building serialize on one
// writer lock; the read methods take the read lock.
//
// Input need not be clean: samples are re-ordered through a bounded
// watermark ring, duplicates are dropped per VM, corrupt readings are
// quarantined, and per-VM gaps are repaired by the configured GapPolicy.
// See DESIGN.md §8 for the fault model.
type Ingestor struct {
	tr           *trace.Trace
	keys         *trace.KeyTable
	opts         Options
	rules        classify.Rules
	lags         []int // rules.Lags(), shared by every VM's sketch
	snapStep     int
	stepsPerHour int
	minSteps     int
	met          *ingestMetrics

	// regionsByName lists the interned region ids in region-name order,
	// the order the region-agnostic score takes its rows in.
	regionsByName []int32

	mu       sync.RWMutex
	subs     []*subState // indexed by interned subscription id
	accs     []*vmAcc
	retired  []bool
	clouds   map[core.Cloud]*cloudState
	flushBuf []float32
	recycle  func(StepBatch)

	// Fold state, written only under the write lock and reused by every
	// fold: one scratch per fold worker, the subscriptions being built (in
	// interned-id order) and the slab their profiles land in, index for
	// index, the cursor that hands them out in foldBlock runs, the worker
	// entry point (a method value made once, so a fold allocates no
	// closure).
	foldScratch []*foldScratch
	foldSubs    []*subState
	foldSlab    []kb.Profile
	foldNext    atomic.Int64
	foldWork    func(worker int)

	// at caches the facts of the step observe last folded a sample of. It
	// starts as StartStep's: a zero value would pass for step 0's.
	at stepFacts

	// watermark is the newest step already folded; slots hold the steps
	// still in flight, indexed by step modulo len(slots).
	watermark int
	slots     []reorderSlot
	faults    FaultStats

	lastStep        atomic.Int64
	samplesIngested atomic.Int64
	stepsIngested   atomic.Int64

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

// newIngestor returns an empty ingestor for the trace's universe, reporting
// through the given metric set.
func newIngestor(tr *trace.Trace, opts Options, met *ingestMetrics) *Ingestor {
	stepsPerHour := tr.Grid.StepsPerHour()
	opts = opts.withDefaults(stepsPerHour)
	keys := tr.Keys()
	rules := classify.NewRules(tr.Family, stepsPerHour)
	ing := &Ingestor{
		tr:           tr,
		keys:         keys,
		opts:         opts,
		rules:        rules,
		lags:         rules.Lags(),
		snapStep:     tr.SnapshotStep(),
		stepsPerHour: stepsPerHour,
		minSteps:     kb.MinProfileStepsFor(tr.Grid),
		met:          met,
		subs:         make([]*subState, len(keys.Subs)),
		accs:         make([]*vmAcc, len(tr.VMs)),
		retired:      make([]bool, len(tr.VMs)),
		clouds:       make(map[core.Cloud]*cloudState),
		watermark:    opts.StartStep - 1,
		slots:        make([]reorderSlot, opts.MaxLatenessSteps+1),
	}
	ing.regionsByName = make([]int32, len(keys.Regions))
	for i := range ing.regionsByName {
		ing.regionsByName[i] = int32(i)
	}
	slices.SortFunc(ing.regionsByName, func(a, b int32) int {
		return strings.Compare(keys.Regions[a], keys.Regions[b])
	})
	ing.foldWork = ing.foldBlocks
	ing.at = ing.stepFactsOf(opts.StartStep)
	ing.lastStep.Store(int64(opts.StartStep) - 1)
	for _, c := range core.Clouds() {
		ing.clouds[c] = &cloudState{util: sketch.NewHistogram(0, 1, cloudBins)}
	}
	return ing
}

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
// through once their slot folds (the engine points it at the source's free
// lists when the shard runs inline, at the router's pool otherwise). It
// must be called before ingestion starts.
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
// buffered slot it passes in step order. Steps with no buffered slot (an
// entirely dropped batch) advance the watermark silently; the gap policy
// repairs the affected VMs when their next sample folds.
func (ing *Ingestor) advanceLocked(target int) {
	for ing.watermark < target {
		next := ing.watermark + 1
		slot := &ing.slots[next%len(ing.slots)]
		if slot.valid && slot.step == next {
			ing.foldSlotLocked(slot)
		}
		ing.watermark = next
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
// reorder ring's occupancy, and — filled in by the engine — the column
// pool's allocation ledger.
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

// ingestVital assembles this ingestor's vitals; the shard id and the pool
// ledger are the engine's to attach (the ledger lives with whoever owns the
// free list).
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

// Finish drains the reorder ring into the accumulators once the stream
// ends.
func (ing *Ingestor) Finish() {
	ing.mu.Lock()
	ing.advanceLocked(ing.watermark + len(ing.slots))
	ing.mu.Unlock()
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
			regionHours: make([]*kb.RegionHours, len(ing.keys.Regions)),
		}
		ing.subs[si] = ss
	}
	ss.vmsObserved++
	ss.regions[v.Region] = true
	ss.services[v.Service] = true
	cs := ing.clouds[v.Cloud]
	cs.vmsSeen++
	// from is assigned when the first sample folds (ingestLocked): under a
	// faulty collector the first delivered step, not the creation step, is
	// where the observed series starts.
	acc := &vmAcc{
		util: ss.util.Counter(),
		cs:   cs,
		idx:  idx,
		v:    v,
		sub:  ss,
	}
	acc.ac.Init(ing.lags...)
	ing.accs[idx] = acc
	return acc
}

// stepFacts are what observe needs to know about a sample's grid step
// alone. Samples fold grouped by step, so observe works them out when the
// step changes and every other sample of the step reuses them.
type stepFacts struct {
	step      int
	hour      int  // the grid hour, Grid.HourOf(step)
	hourOfDay int  // hour % 24
	flush     bool // a fold boundary: flush the autocorrelation block
	topOfHour bool // the sample is its subscription's hourly region reading
}

func (ing *Ingestor) stepFactsOf(step int) stepFacts {
	hour := ing.tr.Grid.HourOf(step)
	return stepFacts{
		step:      step,
		hour:      hour,
		hourOfDay: hour % 24,
		flush:     step%ing.opts.FoldEverySteps == 0,
		topOfHour: step%ing.stepsPerHour == 0,
	}
}

// observe folds one sample into a VM's accumulators. On a fold-boundary
// step the autocorrelation sketch's deferred block is flushed while the
// accumulator is in cache, so the fold right after finds nothing pending.
func (ing *Ingestor) observe(acc *vmAcc, step int, cpu float64) {
	if step != ing.at.step {
		ing.at = ing.stepFactsOf(step)
	}
	at := &ing.at
	acc.ac.Add(cpu)
	if at.flush {
		acc.ac.Flush()
	}
	// The offset is from the series origin, the batch classifier's index
	// over a materialized series. Under GapSkip the observed-sample count
	// drifts from it after every hole, so it must derive from the step.
	ing.rules.Add(&acc.Evidence, step-acc.from, cpu)
	acc.cs.samples++
	if !acc.qualified {
		if acc.ac.N() >= ing.minSteps {
			ing.qualify(acc)
		}
		return
	}
	h := at.hourOfDay
	acc.hourly[h] += cpu
	acc.hourlyN[h]++
	acc.util.Add(cpu)
	acc.cs.util.Add(cpu)
	if at.topOfHour {
		acc.sub.addRegionHour(ing.keys.RegionOf[acc.idx], at.hour, cpu, ing.tr.Grid.Hours())
	}
}

// qualify promotes a VM that has reached a day of history: every retained
// sample (the autocorrelation ring still holds the complete series at this
// point, since the qualification threshold is at most its largest lag:
// below it for CPU, equal to it for serverless, whose ring is one day long;
// TestQualificationFitsTheRing holds it there) is flushed into the per-hour,
// per-subscription, and per-cloud aggregates that only profiled VMs
// contribute to.
func (ing *Ingestor) qualify(acc *vmAcc) {
	acc.qualified = true
	acc.sub.qualified = append(acc.sub.qualified, acc.idx)
	vals := acc.ac.RetainedRaw(ing.flushBuf[:0])
	g := ing.tr.Grid
	cs := acc.cs
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
		if lifeMin < kb.ShortBinMinutes {
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
	p := ing.rules.Decide(&acc.Evidence, &acc.ac)
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

// foldInto builds this ingestor's subscriptions' profiles for the engine's
// merge, places each at its subscription's rank in byRank (rank is indexed
// by interned subscription id), and returns how many it placed. The
// subscriptions of one trace partition across shards, so each slot has
// exactly one writer. A fold writes the ingestor's scratch and caches,
// hence the write lock; the engine has quiesced the shard, so only readers
// can hold it.
func (ing *Ingestor) foldInto(byRank []*kb.Profile, rank []int32) int {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	slab := ing.buildProfilesLocked()
	j := 0
	for si, ss := range ing.subs {
		if ss != nil {
			byRank[rank[si]] = &slab[j]
			j++
		}
	}
	return len(slab)
}

// foldBlock is how many consecutive subscriptions a fold worker claims at
// a time. Subscription cost is skewed — a few hold most of the VMs — so a
// static split leaves one core idle; small blocks balance the load while
// keeping each worker's profiles contiguous in the slab.
const foldBlock = 16

// foldScratch is one fold worker's reusable state: the candidate
// references of the subscription being built, its per-pattern counts
// (indexed by core.Pattern), the populated regions' rows and their hourly
// averages for the region-agnostic score, and the classifications the
// worker performed, by pattern, published to mClassified once per fold.
type foldScratch struct {
	refs       []foldRef
	counts     []int
	classified []int64
	rows       []*kb.RegionHours
	avgs       []float64
}

// buildProfilesLocked builds a fresh profile for every observed
// subscription, in interned-id order. The profiles share one allocation: a
// fold replaces all of them, so they also die together. The subscriptions are built on up to parallel.Workers()
// goroutines, each writing its profiles into the slab at their own index,
// so the result does not depend on which worker built what; on one core the
// fold runs inline. Callers hold the write lock, which keeps every reader
// out for the whole fold, and each subscription (with its VMs'
// accumulators and its caches) is touched by exactly one worker.
func (ing *Ingestor) buildProfilesLocked() []kb.Profile {
	subs := ing.foldSubs[:0]
	for _, ss := range ing.subs {
		if ss != nil {
			subs = append(subs, ss)
		}
	}
	ing.foldSubs = subs
	ing.foldSlab = make([]kb.Profile, len(subs))
	workers := min(parallel.Workers(), (len(subs)+foldBlock-1)/foldBlock)
	for len(ing.foldScratch) < workers {
		ing.foldScratch = append(ing.foldScratch, &foldScratch{
			counts:     make([]int, len(mClassified)),
			classified: make([]int64, len(mClassified)),
		})
	}
	ing.foldNext.Store(0)
	parallel.ForEach(workers, ing.foldWork)
	slab := ing.foldSlab
	ing.foldSlab = nil
	return slab
}

// foldBlocks is one fold worker: it claims foldBlock subscriptions at a
// time until none are left, building each into its slab slot with the
// worker's own scratch.
func (ing *Ingestor) foldBlocks(worker int) {
	s := ing.foldScratch[worker]
	subs, slab := ing.foldSubs, ing.foldSlab
	for {
		lo := int(ing.foldNext.Add(foldBlock)) - foldBlock
		if lo >= len(subs) {
			break
		}
		for i := lo; i < min(lo+foldBlock, len(subs)); i++ {
			ing.buildProfile(s, subs[i], &slab[i])
		}
	}
	for pat, n := range s.classified {
		if n > 0 {
			mClassified[pat].Add(n)
			s.classified[pat] = 0
		}
	}
}

// buildProfile assembles a kb.Profile from a subscription's streaming
// state into p. It gathers the candidates' sums into a kb.Tally and the
// populated regions' rows, in name order, and kb finishes the profile with
// the batch extractor's rules (the per-subscription classification cap is
// applied in VM order, as there, so the live profile converges to the batch
// one at window end). It does the work the hour changed and no more:
// candidates are selected by reference and cut to the cap before any live
// VM is classified, and what only lifecycle events change comes from the
// subscription's caches.
func (ing *Ingestor) buildProfile(s *foldScratch, ss *subState, p *kb.Profile) {
	ss.regionNames = sortedNames(ss.regionNames, ss.regions)
	ss.serviceNames = sortedNames(ss.serviceNames, ss.services)
	*p = kb.Profile{
		Subscription:        ss.id,
		Cloud:               ss.cloud,
		Family:              ing.tr.Family,
		Regions:             ss.regionNames,
		Services:            ss.serviceNames,
		VMsObserved:         ss.vmsObserved,
		SnapshotVMs:         ss.snapshotVMs,
		SnapshotCores:       ss.snapshotCores,
		RegionAgnosticScore: -1,
	}
	if len(ss.lifetimes) > 0 {
		p.MedianLifetimeMin = ss.medianLifetimeMin()
		p.ShortLivedShare = float64(ss.shortLived) / float64(len(ss.lifetimes))
	}

	refs := s.refs[:0]
	for i := range ss.retired {
		refs = append(refs, foldRef{idx: ss.retired[i].idx, retired: int32(i)})
	}
	for _, idx := range ss.qualified {
		refs = append(refs, foldRef{idx: idx, retired: -1})
	}
	s.refs = refs
	slices.SortFunc(refs, func(a, b foldRef) int { return cmp.Compare(a.idx, b.idx) })
	if len(refs) > ing.opts.MaxClassifyPerSub {
		refs = refs[:ing.opts.MaxClassifyPerSub]
	}

	// Read each candidate where it lives: same operands in the same idx
	// order as folding compacted classifiedVM copies, so every sum carries
	// the same bits.
	tally := kb.Tally{Counts: s.counts}
	clear(tally.Counts)
	for _, ref := range refs {
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
			pat = ing.rules.Decide(&acc.Evidence, &acc.ac)
			s.classified[pat]++
			n = acc.ac.N()
			sum, hSum, hN = acc.ac.Mean()*float64(n), &acc.hourly, &acc.hourlyN
		}
		tally.Count(pat)
		tally.UtilSum += sum
		tally.UtilN += n
		for h := 0; h < 24; h++ {
			tally.Hourly[h] += hSum[h]
			tally.HourlyN[h] += float64(hN[h])
		}
	}
	tally.Fill(p)
	if len(p.Regions) > 1 {
		rows := s.rows[:0]
		for _, ri := range ing.regionsByName {
			if rh := ss.regionHours[ri]; rh != nil {
				rows = append(rows, rh)
			}
		}
		s.rows = rows
		p.RegionAgnosticScore, s.avgs = kb.RegionAgnosticScore(rows, s.avgs)
	}
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

// LiveProfile is a knowledge-base profile augmented with streaming-only
// knowledge: sketch-estimated utilization quantiles and stream counters.
type LiveProfile struct {
	kb.Profile
	UtilP50      float64 `json:"utilP50"`
	UtilP95      float64 `json:"utilP95"`
	QualifiedVMs int     `json:"qualifiedVMs"`
	Samples      int64   `json:"samples"`
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

// liveProfileLocked augments one published profile with this ingestor's
// streaming-only knowledge. Callers hold the read lock.
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
