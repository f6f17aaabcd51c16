package stream

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/sketch"
	"cloudlens/internal/trace"
)

// Checkpoints (DESIGN.md §8, §11). This file holds the decoded form — the
// DTOs below — with the capture that fills them from a live engine, the
// domain validation every decode and restore runs, and the restore that
// rebuilds an engine from them; codec.go holds the byte format. Every sketch
// serializes through its exported State type (internal/sketch/state.go),
// whose round-trip is exact, so a resumed run folds the remaining stream
// into bit-identical accumulators.
//
// The DTOs mirror the ingestor's unexported state field for field. Keys stay
// strings (not interned ids) so the serialized form is independent of the
// intern table's assignment order.

// vmAccState is a live VM accumulator.
type vmAccState struct {
	Idx              int32
	From             int
	Seen             bool
	Next             int
	Last             float64
	PeakSum, RestSum float64
	PeakN, RestN     int
	// PeakMax and IdleN are the serverless family's invocation evidence
	// (running peak, idle-sample count); zero for CPU-family snapshots.
	PeakMax   float64
	IdleN     int
	Qualified bool
	Hourly    [24]float64
	HourlyN   [24]int
	// GapSteps are the unfilled holes GapSkip recorded before the VM
	// qualified (empty once Qualified); qualify's flush needs them to
	// restore each retained sample's true step.
	GapSteps []int32
	AC       sketch.AutoCorrState
}

// classifiedVMState is a retired, classified VM.
type classifiedVMState struct {
	Idx     int32
	Pattern core.Pattern
	UtilSum float64
	N       int
	Hourly  [24]float64
	HourlyN [24]int
}

// regionHourState is one region's top-of-hour accumulator.
type regionHourState struct {
	Sum []float64
	N   []float64
}

// subStateState is one subscription's streaming state.
type subStateState struct {
	ID            core.SubscriptionID
	Cloud         core.Cloud
	Regions       []string
	Services      []string
	VMsObserved   int
	SnapshotVMs   int
	SnapshotCores int
	Lifetimes     []float64
	ShortLived    int
	Util          sketch.HistogramState
	Retired       []classifiedVMState
	RegionHours   map[string]regionHourState
}

// cloudStateState is one platform's aggregate.
type cloudStateState struct {
	Util    sketch.HistogramState
	Samples int64
	VMsSeen int64
}

// slotState is one pending reorder slot (delivered but not yet folded),
// serialized in the hot path's columnar layout: VM[i]'s reading at the
// slot's step is CPU[i], and Extras carries the row-form samples folded
// after the columns (strays re-ordered into the slot).
type slotState struct {
	Step    int
	VM      []int32
	CPU     []float32
	Extras  []Sample
	Deleted []int32
}

// ShardCheckpoint is one ingestor's complete serialized state — the whole
// pipeline when unsharded, one shard of it otherwise. Resuming from it and
// replaying the remaining steps reproduces the uninterrupted run exactly
// (the kill/resume golden tests pin this).
type ShardCheckpoint struct {
	// LastStep is the newest batch step observed before the snapshot; the
	// resumed replay starts at LastStep + 1.
	LastStep int
	// Watermark and Slots carry the reorder ring: steps at or below
	// Watermark are folded, later delivered steps wait in Slots.
	Watermark int
	Slots     []slotState

	// The pipeline parameters that shape folded state. A resumed run
	// inherits them so its folds land on the same steps.
	FoldEverySteps    int
	MaxClassifyPerSub int
	ShortBinMinutes   int
	MaxLatenessSteps  int
	GapPolicy         GapPolicy

	Subs    []subStateState
	Accs    []vmAccState
	Clouds  map[core.Cloud]cloudStateState
	Retired []bool
	Faults  FaultStats

	SamplesIngested int64
	StepsIngested   int64
	FoldCount       int64
}

// Checkpoint is the complete serialized engine state: how many shards the
// pipeline ran with, group-level counters, and one snapshot per shard. A
// resume must run with the recorded shard count — the per-shard reorder
// rings, dedup cursors, and fault ledgers are only meaningful under the
// same partitioning.
type Checkpoint struct {
	// ShardCount is the number of ingestor shards the writing pipeline ran
	// (1 for the single-ingestor pipeline).
	ShardCount int
	// LastStep is the newest batch step observed before the snapshot,
	// common to every shard.
	LastStep int

	SamplesIngested int64
	StepsIngested   int64
	// FoldCount counts published folds: ingestor folds when unsharded,
	// hour-barrier merges when sharded.
	FoldCount int64

	Shards []*ShardCheckpoint
}

// TraceFingerprint hashes the identity of a trace — grid geometry plus
// every VM's metadata, lifecycle, and usage-model identity — so a
// checkpoint refuses to resume against a different universe (which would
// silently corrupt every accumulator).
func TraceFingerprint(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	w := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	w(tr.Grid.Start.Unix(), int64(tr.Grid.Step), int64(tr.Grid.N), int64(tr.Family), int64(len(tr.VMs)))
	for i := range tr.VMs {
		v := &tr.VMs[i]
		io.WriteString(h, string(v.Subscription))
		io.WriteString(h, v.Region)
		io.WriteString(h, v.Service)
		w(int64(v.ID), int64(v.Cloud), int64(v.Size.Cores),
			int64(v.CreatedStep), int64(v.DeletedStep),
			int64(v.Usage.Pattern), int64(v.Usage.Seed))
	}
	return h.Sum64()
}

// WriteCheckpoint serializes the ingestor's complete state to w as a
// single-shard checkpoint. It holds the read lock only while capturing the
// snapshot, so ingestion pauses but snapshot readers do not.
func (ing *Ingestor) WriteCheckpoint(w io.Writer) error {
	_, err := writeCheckpoint(w, ing.tr, ing.captureCheckpoint())
	return err
}

// captureCheckpoint implements Engine.
func (ing *Ingestor) captureCheckpoint() *Checkpoint {
	sc := ing.snapshot()
	return &Checkpoint{
		ShardCount:      1,
		LastStep:        sc.LastStep,
		SamplesIngested: sc.SamplesIngested,
		StepsIngested:   sc.StepsIngested,
		FoldCount:       sc.FoldCount,
		Shards:          []*ShardCheckpoint{sc},
	}
}

// snapshot captures a deep copy of the ingestor state under the read lock.
func (ing *Ingestor) snapshot() *ShardCheckpoint {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	return ing.checkpointLocked()
}

// checkpointLocked captures the ingestor state as a ShardCheckpoint.
// Callers hold at least the read lock. Every slice and sketch state is
// copied, so the snapshot stays consistent after the lock is released.
func (ing *Ingestor) checkpointLocked() *ShardCheckpoint {
	ck := &ShardCheckpoint{
		LastStep:          int(ing.lastStep.Load()),
		Watermark:         ing.watermark,
		FoldEverySteps:    ing.opts.FoldEverySteps,
		MaxClassifyPerSub: ing.opts.MaxClassifyPerSub,
		ShortBinMinutes:   ing.opts.ShortBinMinutes,
		MaxLatenessSteps:  ing.opts.MaxLatenessSteps,
		GapPolicy:         ing.opts.GapPolicy,
		Clouds:            make(map[core.Cloud]cloudStateState, len(ing.clouds)),
		Retired:           append([]bool(nil), ing.retired...),
		Faults:            ing.faults,
		SamplesIngested:   ing.samplesIngested.Load(),
		StepsIngested:     ing.stepsIngested.Load(),
		FoldCount:         ing.foldCount.Load(),
	}
	for _, slot := range ing.slots {
		if !slot.valid {
			continue
		}
		ck.Slots = append(ck.Slots, slotState{
			Step:    slot.step,
			VM:      append([]int32(nil), slot.vm...),
			CPU:     append([]float32(nil), slot.cpu...),
			Extras:  append([]Sample(nil), slot.extras...),
			Deleted: append([]int32(nil), slot.deleted...),
		})
	}
	for _, ss := range ing.subs {
		if ss == nil {
			continue
		}
		st := subStateState{
			ID:            ss.id,
			Cloud:         ss.cloud,
			Regions:       sortedKeys(ss.regions),
			Services:      sortedKeys(ss.services),
			VMsObserved:   ss.vmsObserved,
			SnapshotVMs:   ss.snapshotVMs,
			SnapshotCores: ss.snapshotCores,
			Lifetimes:     append([]float64(nil), ss.lifetimes...),
			ShortLived:    ss.shortLived,
			Util:          ss.util.State(),
			Retired:       make([]classifiedVMState, 0, len(ss.retired)),
			RegionHours:   make(map[string]regionHourState),
		}
		for _, c := range ss.retired {
			st.Retired = append(st.Retired, classifiedVMState{
				Idx: c.idx, Pattern: c.pattern, UtilSum: c.utilSum, N: c.n,
				Hourly: c.hourly, HourlyN: c.hourlyN,
			})
		}
		for ri, rh := range ss.regionHours {
			if rh == nil {
				continue
			}
			st.RegionHours[ing.keys.Regions[ri]] = regionHourState{
				Sum: append([]float64(nil), rh.sum...),
				N:   append([]float64(nil), rh.n...),
			}
		}
		ck.Subs = append(ck.Subs, st)
	}
	for _, acc := range ing.accs {
		if acc == nil {
			continue
		}
		ck.Accs = append(ck.Accs, vmAccState{
			Idx: acc.idx, From: acc.from, Seen: acc.seen, Next: acc.next, Last: acc.last,
			PeakSum: acc.peakSum, RestSum: acc.restSum, PeakN: acc.peakN, RestN: acc.restN,
			PeakMax: acc.peakMax, IdleN: acc.idleN,
			Qualified: acc.qualified, Hourly: acc.hourly, HourlyN: acc.hourlyN,
			GapSteps: append([]int32(nil), acc.gapSteps...),
			AC:       acc.ac.State(),
		})
	}
	for c, cs := range ing.clouds {
		ck.Clouds[c] = cloudStateState{Util: cs.util.State(), Samples: cs.samples, VMsSeen: cs.vmsSeen}
	}
	return ck
}

// ReadCheckpoint decodes a checkpoint written by WriteCheckpoint, verifying
// magic, version, checksums, and that the snapshot belongs to the given
// trace.
func ReadCheckpoint(r io.Reader, tr *trace.Trace) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("stream: read checkpoint: %w", err)
	}
	return decodeCheckpoint(data, tr)
}

// validate rejects engine checkpoints whose shape is internally
// inconsistent: an impossible shard count, shards snapshotted at different
// steps, or (when sharded) state that belongs to a different shard under
// the subscription-hash partition.
func (ck *Checkpoint) validate(tr *trace.Trace) error {
	if ck.ShardCount < 1 || ck.ShardCount > MaxShards {
		return fmt.Errorf("stream: checkpoint shard count %d outside [1, %d]", ck.ShardCount, MaxShards)
	}
	if len(ck.Shards) != ck.ShardCount {
		return fmt.Errorf("stream: checkpoint declares %d shards but carries %d", ck.ShardCount, len(ck.Shards))
	}
	keys := tr.Keys()
	for i, sc := range ck.Shards {
		if sc == nil {
			return fmt.Errorf("stream: checkpoint shard %d is empty", i)
		}
		if err := sc.validate(tr); err != nil {
			return fmt.Errorf("stream: shard %d: %w", i, err)
		}
		if sc.LastStep != ck.LastStep {
			return fmt.Errorf("stream: checkpoint shard %d snapshotted at step %d, group at %d", i, sc.LastStep, ck.LastStep)
		}
		if sc.Watermark != ck.Shards[0].Watermark {
			return fmt.Errorf("stream: checkpoint shard %d watermark %d diverges from shard 0's %d", i, sc.Watermark, ck.Shards[0].Watermark)
		}
		if ck.ShardCount == 1 {
			continue
		}
		// Sharded state must respect the partition: a VM's accumulator (or
		// a subscription's state) restored into the wrong shard would split
		// its series across dedup cursors and corrupt every aggregate.
		for _, st := range sc.Accs {
			if owner := int(keys.SubHash[keys.SubOf[st.Idx]] % uint64(ck.ShardCount)); owner != i {
				return fmt.Errorf("stream: checkpoint shard %d holds accumulator for VM %d owned by shard %d", i, st.Idx, owner)
			}
		}
		for _, ss := range sc.Subs {
			si, _ := keys.SubIndex(ss.ID) // existence verified by sc.validate
			if owner := int(keys.SubHash[si] % uint64(ck.ShardCount)); owner != i {
				return fmt.Errorf("stream: checkpoint shard %d holds subscription %s owned by shard %d", i, ss.ID, owner)
			}
		}
	}
	return nil
}

// effectiveRingLen mirrors Options.withDefaults' MaxLatenessSteps handling:
// the reorder ring a restored ingestor will allocate for this checkpoint.
func (ck *ShardCheckpoint) effectiveRingLen() int {
	switch {
	case ck.MaxLatenessSteps == 0:
		return 3 + 1
	case ck.MaxLatenessSteps < 0:
		return 0 + 1
	}
	return ck.MaxLatenessSteps + 1
}

// validate rejects checkpoints whose decoded fields would panic, hang, or
// silently corrupt a restored ingestor. The codec guarantees widths, not
// domains: a wrong value can turn MaxClassifyPerSub negative (a
// [:negative] slice panic in buildProfile), plant an out-of-range VM index
// or NaN reading in a pending reorder slot (an index panic or quarantine
// bypass at the first fold), rewind an accumulator's Next far enough that
// the next sample "repairs" a billion-step gap, or size the reorder ring in
// gigabytes. Everything checked here was found by fuzzing ReadCheckpoint
// and decodeShardSection over mutated bytes.
func (ck *ShardCheckpoint) validate(tr *trace.Trace) error {
	n := tr.Grid.N
	ringLen := ck.effectiveRingLen()
	keys := tr.Keys()
	lags := newLagSet(tr.Grid.StepsPerHour()).all
	hours := tr.Grid.Hours()
	if ck.LastStep < -1 || ck.LastStep > n {
		return fmt.Errorf("stream: checkpoint last step %d outside [-1, %d]", ck.LastStep, n)
	}
	if ck.Watermark < -1 || ck.Watermark > n+ringLen {
		return fmt.Errorf("stream: checkpoint watermark %d outside [-1, %d]", ck.Watermark, n+ringLen)
	}
	if ck.MaxClassifyPerSub < 0 {
		return fmt.Errorf("stream: checkpoint classification cap %d is negative", ck.MaxClassifyPerSub)
	}
	if ck.MaxLatenessSteps > n {
		// The reorder ring is allocated from this number.
		return fmt.Errorf("stream: checkpoint lateness bound %d exceeds the %d-step window", ck.MaxLatenessSteps, n)
	}
	switch ck.GapPolicy {
	case GapCarry, GapSkip, GapInterpolate:
	default:
		return fmt.Errorf("stream: checkpoint carries unknown gap policy %d", ck.GapPolicy)
	}
	if len(ck.Retired) != len(tr.VMs) {
		return fmt.Errorf("stream: checkpoint covers %d VMs, trace has %d", len(ck.Retired), len(tr.VMs))
	}
	for _, st := range ck.Slots {
		if st.Step <= ck.Watermark || st.Step > ck.Watermark+ringLen {
			return fmt.Errorf("stream: checkpoint slot step %d outside (%d, %d]", st.Step, ck.Watermark, ck.Watermark+ringLen)
		}
		if len(st.VM) != len(st.CPU) {
			return fmt.Errorf("stream: checkpoint slot %d carries %d VM ids against %d readings", st.Step, len(st.VM), len(st.CPU))
		}
		for i, vm := range st.VM {
			if int(vm) < 0 || int(vm) >= len(tr.VMs) {
				return fmt.Errorf("stream: checkpoint slot %d buffers sample for VM %d outside trace", st.Step, vm)
			}
			if c := st.CPU[i]; !(c >= 0 && c <= 1) { // also rejects NaN
				return fmt.Errorf("stream: checkpoint slot %d buffers out-of-domain reading %v for VM %d", st.Step, c, vm)
			}
		}
		for _, s := range st.Extras {
			if int(s.VM) < 0 || int(s.VM) >= len(tr.VMs) {
				return fmt.Errorf("stream: checkpoint slot %d buffers sample for VM %d outside trace", st.Step, s.VM)
			}
			if !(s.CPU >= 0 && s.CPU <= 1) { // also rejects NaN
				return fmt.Errorf("stream: checkpoint slot %d buffers out-of-domain reading %v for VM %d", st.Step, s.CPU, s.VM)
			}
		}
		for _, idx := range st.Deleted {
			if int(idx) < 0 || int(idx) >= len(tr.VMs) {
				return fmt.Errorf("stream: checkpoint slot %d deletes VM %d outside trace", st.Step, idx)
			}
		}
	}
	for _, st := range ck.Accs {
		if int(st.Idx) < 0 || int(st.Idx) >= len(tr.VMs) {
			return fmt.Errorf("stream: checkpoint accumulator for VM %d outside trace", st.Idx)
		}
		if st.Seen && (st.From < 0 || st.Next <= st.From || st.Next > n) {
			return fmt.Errorf("stream: checkpoint accumulator for VM %d has impossible span [%d, %d)", st.Idx, st.From, st.Next)
		}
		if !(st.Last >= 0 && st.Last <= 1) && st.Seen {
			return fmt.Errorf("stream: checkpoint accumulator for VM %d holds out-of-domain last reading %v", st.Idx, st.Last)
		}
		// The sketch must track the lags this grid's classifier reads.
		if !slices.Equal(st.AC.Lags, lags) {
			return fmt.Errorf("stream: checkpoint accumulator for VM %d tracks lags %v, this grid's are %v", st.Idx, st.AC.Lags, lags)
		}
		// Gap steps must be strictly increasing holes inside the observed
		// span, or qualify's step-reconstruction walk misattributes (or
		// never terminates advancing past) every flushed sample.
		prev := st.From
		for _, gs := range st.GapSteps {
			if int(gs) <= prev || int(gs) >= st.Next {
				return fmt.Errorf("stream: checkpoint accumulator for VM %d records gap step %d outside (%d, %d)", st.Idx, gs, prev, st.Next)
			}
			prev = int(gs)
		}
	}
	for _, ss := range ck.Subs {
		if _, ok := keys.SubIndex(ss.ID); !ok {
			return fmt.Errorf("stream: checkpoint carries subscription %s not in trace", ss.ID)
		}
		if err := validHistogram(ss.Util, subBins); err != nil {
			return fmt.Errorf("stream: checkpoint subscription %s: %w", ss.ID, err)
		}
		for _, c := range ss.Retired {
			if !c.Pattern.Valid() {
				return fmt.Errorf("stream: checkpoint subscription %s retired VM %d with unknown pattern %d", ss.ID, c.Idx, c.Pattern)
			}
		}
		for r, rh := range ss.RegionHours {
			if _, ok := keys.RegionIndex(r); !ok {
				return fmt.Errorf("stream: checkpoint subscription %s reports from region %q not in trace", ss.ID, r)
			}
			if len(rh.Sum) != hours || len(rh.N) != hours {
				return fmt.Errorf("stream: checkpoint subscription %s region %q holds %d/%d hourly sums, the window has %d hours", ss.ID, r, len(rh.Sum), len(rh.N), hours)
			}
		}
	}
	for c, cs := range ck.Clouds {
		if err := validHistogram(cs.Util, cloudBins); err != nil {
			return fmt.Errorf("stream: checkpoint cloud %v: %w", c, err)
		}
	}
	return nil
}

// validHistogram requires a restored utilization sketch to have the
// geometry this build constructs: live sketches are merged with fresh ones
// on the read path, and Merge panics on a mismatch.
func validHistogram(h sketch.HistogramState, bins int) error {
	if h.Lo != 0 || h.Hi != 1 || len(h.Counts) != bins {
		return fmt.Errorf("utilization sketch spans [%v, %v] in %d bins, want [0, 1] in %d", h.Lo, h.Hi, len(h.Counts), bins)
	}
	return nil
}

// applyOptions merges the checkpointed pipeline parameters over opts: a
// resumed run inherits the fold cadence, classification cap, lateness
// bound, and gap policy that shaped the snapshot, while runtime-only
// options (Speedup, Buffer, WrapSource, Shards) come from opts.
func (ck *ShardCheckpoint) applyOptions(opts Options) Options {
	opts.FoldEverySteps = ck.FoldEverySteps
	opts.MaxClassifyPerSub = ck.MaxClassifyPerSub
	opts.ShortBinMinutes = ck.ShortBinMinutes
	opts.MaxLatenessSteps = ck.MaxLatenessSteps
	opts.GapPolicy = ck.GapPolicy
	opts.StartStep = ck.LastStep + 1
	return opts
}

// RestoreIngestor rebuilds a single ingestor from a single-shard
// checkpoint. The checkpointed fold cadence, classification cap, lateness
// bound, and gap policy override the corresponding opts fields so the
// resumed run folds identically to the interrupted one; runtime-only
// options (Speedup, Buffer, WrapSource) come from opts. Multi-shard
// checkpoints must resume through RestoreEngine with a matching shard
// count.
func RestoreIngestor(tr *trace.Trace, opts Options, ck *Checkpoint) (*Ingestor, error) {
	// Checkpoints read through ReadCheckpoint are already validated, but
	// RestoreIngestor also accepts hand-built ones; validate is cheap and
	// the restore path below indexes trusting every checked invariant.
	if err := ck.validate(tr); err != nil {
		return nil, err
	}
	if ck.ShardCount != 1 {
		return nil, fmt.Errorf("stream: checkpoint was written by a %d-shard pipeline; resume it through a sharded engine with -shards %d", ck.ShardCount, ck.ShardCount)
	}
	return restoreShard(tr, opts, ck.Shards[0], defaultIngestMetrics, true, 0)
}

// RestoreEngine rebuilds the ingestion engine a checkpoint describes. The
// requested opts.Shards must match the recorded shard count: per-shard
// reorder rings and dedup cursors are only meaningful under the same
// partitioning, so a mismatch is refused loudly instead of corrupting
// state.
func RestoreEngine(tr *trace.Trace, opts Options, ck *Checkpoint) (Engine, error) {
	eng, _, err := restoreEngine(tr, opts, ck)
	return eng, err
}

// restoreEngine is RestoreEngine also returning the effective options the
// restored engine runs under (checkpoint parameters merged over opts),
// which the resumed pipeline's replayer needs.
func restoreEngine(tr *trace.Trace, opts Options, ck *Checkpoint) (Engine, Options, error) {
	opts = opts.withDefaults(tr.Grid.StepsPerHour())
	if err := ck.validate(tr); err != nil {
		return nil, opts, err
	}
	if opts.Shards != ck.ShardCount {
		return nil, opts, fmt.Errorf("stream: checkpoint was written with %d shard(s) but this run is configured for %d; restart with -shards %d to resume it", ck.ShardCount, opts.Shards, ck.ShardCount)
	}
	if ck.ShardCount == 1 {
		ing, err := restoreShard(tr, opts, ck.Shards[0], defaultIngestMetrics, true, 0)
		if err != nil {
			return nil, opts, err
		}
		return ing, ing.opts, nil
	}
	shards := make([]*Ingestor, ck.ShardCount)
	for i := range shards {
		ing, err := restoreShard(tr, opts, ck.Shards[i], newIngestMetrics(shardLabel(i)), false, i)
		if err != nil {
			return nil, opts, fmt.Errorf("stream: restore shard %d: %w", i, err)
		}
		shards[i] = ing
	}
	eff := shards[0].opts
	g := startShardGroup(tr, eff, shards, ck.FoldCount)
	// Publish the restored profiles immediately so the API serves them
	// before the first post-resume merge.
	g.publishLocked()
	return g, eff, nil
}

// restoreShard rebuilds one ingestor from its shard snapshot.
func restoreShard(tr *trace.Trace, opts Options, ck *ShardCheckpoint, met *ingestMetrics, selfFold bool, shard int) (*Ingestor, error) {
	opts = ck.applyOptions(opts.withDefaults(tr.Grid.StepsPerHour()))
	ing := newIngestorWith(tr, opts, met, selfFold, shard)

	ing.watermark = ck.Watermark
	copy(ing.retired, ck.Retired)
	ing.faults = ck.Faults
	for _, st := range ck.Slots {
		slot := &ing.slots[st.Step%len(ing.slots)]
		slot.valid = true
		slot.step = st.Step
		// Restored columns did not come from a pool; owned stays false so
		// the fold lets them go to the garbage collector.
		slot.owned = false
		slot.vm = st.VM
		slot.cpu = st.CPU
		slot.extras = st.Extras
		slot.deleted = st.Deleted
	}
	for _, st := range ck.Subs {
		si, ok := ing.keys.SubIndex(st.ID)
		if !ok {
			return nil, fmt.Errorf("stream: checkpoint carries subscription %s not in trace", st.ID)
		}
		util, err := sketch.HistogramFromState(st.Util)
		if err != nil {
			return nil, fmt.Errorf("stream: subscription %s: %w", st.ID, err)
		}
		ss := &subState{
			id:            st.ID,
			cloud:         st.Cloud,
			regions:       setOf(st.Regions),
			services:      setOf(st.Services),
			vmsObserved:   st.VMsObserved,
			snapshotVMs:   st.SnapshotVMs,
			snapshotCores: st.SnapshotCores,
			lifetimes:     st.Lifetimes,
			shortLived:    st.ShortLived,
			util:          util,
			retired:       make([]classifiedVM, 0, len(st.Retired)),
			regionHours:   make([]*regionHour, len(ing.keys.Regions)),
		}
		for _, c := range st.Retired {
			ss.retired = append(ss.retired, classifiedVM{
				idx: c.Idx, pattern: c.Pattern, utilSum: c.UtilSum, n: c.N,
				hourly: c.Hourly, hourlyN: c.HourlyN,
			})
		}
		for r, rh := range st.RegionHours {
			ri, ok := ing.keys.RegionIndex(r)
			if !ok {
				return nil, fmt.Errorf("stream: subscription %s reports from region %q not in trace", st.ID, r)
			}
			ss.regionHours[ri] = &regionHour{sum: rh.Sum, n: rh.N}
		}
		ing.subs[si] = ss
	}
	for _, st := range ck.Accs {
		v := &tr.VMs[st.Idx]
		ss := ing.subs[ing.keys.SubOf[st.Idx]]
		if ss == nil {
			return nil, fmt.Errorf("stream: checkpoint accumulator for VM %d precedes its subscription %s", st.Idx, v.Subscription)
		}
		ac, err := sketch.AutoCorrFromState(st.AC)
		if err != nil {
			return nil, fmt.Errorf("stream: VM %d autocorrelation: %w", st.Idx, err)
		}
		acc := &vmAcc{
			idx: st.Idx, v: v, sub: ss, from: st.From,
			seen: st.Seen, next: st.Next, last: st.Last, ac: ac,
			peakSum: st.PeakSum, restSum: st.RestSum, peakN: st.PeakN, restN: st.RestN,
			peakMax: st.PeakMax, idleN: st.IdleN,
			qualified: st.Qualified, hourly: st.Hourly, hourlyN: st.HourlyN,
			gapSteps: st.GapSteps,
		}
		if acc.qualified {
			ss.qualified = append(ss.qualified, acc.idx)
		}
		ing.accs[st.Idx] = acc
	}
	for c, st := range ck.Clouds {
		cs := ing.clouds[c]
		if cs == nil {
			return nil, fmt.Errorf("stream: checkpoint carries unknown cloud %v", c)
		}
		util, err := sketch.HistogramFromState(st.Util)
		if err != nil {
			return nil, fmt.Errorf("stream: cloud %v: %w", c, err)
		}
		cs.util = util
		cs.samples = st.Samples
		cs.vmsSeen = st.VMsSeen
	}

	ing.lastStep.Store(int64(ck.LastStep))
	ing.samplesIngested.Store(ck.SamplesIngested)
	ing.stepsIngested.Store(ck.StepsIngested)
	ing.foldCount.Store(ck.FoldCount)
	if selfFold {
		// Repopulate the knowledge base immediately so the API serves
		// profiles before the first post-resume fold; shard members publish
		// through the group's store instead.
		ing.store.Put(ing.appendProfilesLocked(nil)...)
	}
	return ing, nil
}

func setOf(keys []string) map[string]bool {
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}

// CheckpointInfo describes the most recent durable snapshot.
type CheckpointInfo struct {
	// Step is the newest batch step the file holds (its LastStep), not the
	// step ingestion had reached by the time the write finished.
	Step    int       `json:"step"`
	At      time.Time `json:"at"`
	Path    string    `json:"path"`
	Version int       `json:"version"`
	Bytes   int64     `json:"bytes"`
}

// SaveCheckpoint writes the pipeline's current state to path atomically
// (temp file + rename) and records it as the latest checkpoint.
func (p *Pipeline) SaveCheckpoint(path string) (CheckpointInfo, error) {
	start := time.Now()
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return CheckpointInfo{}, err
	}
	defer os.Remove(tmp.Name())
	ck := p.eng.captureCheckpoint()
	size, err := writeCheckpoint(tmp, p.tr, ck)
	if err != nil {
		tmp.Close()
		return CheckpointInfo{}, err
	}
	if err := tmp.Close(); err != nil {
		return CheckpointInfo{}, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return CheckpointInfo{}, err
	}
	info := CheckpointInfo{
		Step:    ck.LastStep,
		At:      time.Now(),
		Path:    path,
		Version: CheckpointVersion,
		Bytes:   size,
	}
	p.mu.Lock()
	p.lastCkpt = info
	p.mu.Unlock()
	mCheckpoints.Inc()
	mCheckpointBytes.SetInt(int(size))
	mCheckpointSeconds.Observe(time.Since(start).Seconds())
	return info, nil
}

// LastCheckpoint returns the most recent checkpoint written by this
// pipeline, if any.
func (p *Pipeline) LastCheckpoint() (CheckpointInfo, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastCkpt, !p.lastCkpt.At.IsZero()
}

// LoadCheckpointFile reads and validates a checkpoint file against the
// trace. The file is read whole, in one buffer sized from its length, and
// the buffer is garbage once the decoded checkpoint is returned.
func LoadCheckpointFile(path string, tr *trace.Trace) (*Checkpoint, error) {
	start := time.Now()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(data, tr)
	if err != nil {
		return nil, err
	}
	mCheckpointLoadSeconds.Observe(time.Since(start).Seconds())
	return ck, nil
}

// NewResumedPipeline builds a pipeline that continues ingestion from a
// checkpoint: the engine restores every accumulator (per shard, when the
// checkpoint was written sharded) and the replay starts at the step after
// the snapshot. The end-of-window knowledge base matches the uninterrupted
// run's exactly. Options.Shards must match the checkpoint's shard count.
func NewResumedPipeline(tr *trace.Trace, opts Options, ck *Checkpoint) (*Pipeline, error) {
	eng, eff, err := restoreEngine(tr, opts, ck)
	if err != nil {
		return nil, err
	}
	return newPipeline(tr, eff, eng), nil
}
