// Package stream turns the batch reproduction into a live characterization
// service: a replay driver walks an existing trace in simulated time and
// emits the same five-minute utilization telemetry the paper's platform
// collects, and an ingestor folds each sample incrementally into
// knowledge-base state using bounded-memory sketches (package sketch), so
// the Section V knowledge base stays current while samples arrive instead
// of being recomputed from a full week of history.
//
// The pipeline is
//
//	Replayer ──(bounded channel of StepBatch)──▶ Ingestor ──▶ kb.Store
//
// with per-step sample synthesis fanned out over the internal/parallel
// worker pool. Pipeline wires both ends together and exposes race-free
// status, summary, and live-profile snapshots while ingestion runs.
//
// Batches are columnar (DESIGN.md §14): one dense int32 slice of VM ids
// and one dense float32 slice of utilization readings per step, with the
// step implied by the batch, so the ingestion inner loops walk contiguous
// cache lines instead of per-sample structs.
package stream

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cloudlens/internal/parallel"
	"cloudlens/internal/trace"
)

// Sample is one VM's five-minute CPU-utilization report in row form. The
// hot path carries samples as columns (StepBatch.VM / StepBatch.CPU, step
// implied); the row form survives for the rare out-of-band cases — delayed
// samples re-emitted by a faulty collector (StepBatch.Late) and reorder-
// ring strays — where a sample needs to carry its own step.
type Sample struct {
	// VM indexes the trace's VMs slice; the ingestor resolves metadata
	// (subscription, cloud, region, size) through it.
	VM int32
	// Step is the grid step the reading was taken at. A faulty collector
	// may deliver the sample late, in a batch whose Step is larger. The
	// ingestor orders samples by this field, not by arrival.
	Step int32
	// CPU is the utilization fraction at the step.
	CPU float64
}

// Source is anything that produces the ordered StepBatch feed the ingestor
// consumes: the trace Replayer, or a wrapper around it (such as the fault
// injector in internal/faultgen) that perturbs the batches in flight. Batch
// Steps must be non-decreasing; samples in the Late rows may carry earlier
// Steps, bounded by Options.MaxLatenessSteps.
type Source interface {
	// Run produces batches until the window is exhausted or ctx is
	// cancelled, then closes the Events channel. It must be called at most
	// once.
	Run(ctx context.Context) error
	// Events returns the batch channel consumers range over.
	Events() <-chan StepBatch
	// Recycle hands a delivered batch's buffers back to the source. The
	// caller must not retain any of the batch's slices afterwards. Partial
	// recycling is allowed: a consumer may return the columns of one batch
	// and the Late rows of another in separate calls, zero-valued fields
	// meaning "nothing of that kind".
	Recycle(StepBatch)
}

// StepBatch carries everything the platform emits for one grid step in
// columnar (SoA) layout: a utilization sample for every running VM — split
// into a dense VM-id column and a dense float32 CPU column, the step
// implied by the batch — plus the control-plane lifecycle events
// (creations and deletions) that fell on the step. The paper's dataset
// pairs exactly these two feeds — a utilization reading table and a VM
// event table. After the final sampling step the replayer emits one
// trailing batch at Step == Grid.N carrying the deletions that close the
// observation window.
type StepBatch struct {
	Step int
	// VM and CPU are the sample columns: VM[i]'s utilization at this
	// batch's step is CPU[i]. len(VM) == len(CPU) always.
	VM  []int32
	CPU []float32
	// Late carries row-form samples whose Step differs from the batch's —
	// a faulty collector re-delivering delayed readings. Empty on a clean
	// replay.
	Late []Sample
	// Created lists VMs whose creation event falls on this step. VMs that
	// predate the observation window appear in the columns from step 0
	// without a creation event, mirroring the paper's unknown-start
	// records.
	Created []int32
	// Deleted lists VMs whose exclusive end step is this step.
	Deleted []int32
}

// NumSamples returns the number of utilization readings the batch carries
// across both the columns and the Late rows.
func (b StepBatch) NumSamples() int { return len(b.VM) + len(b.Late) }

// Options tunes the streaming pipeline.
type Options struct {
	// Speedup is the simulated-to-wall-clock time ratio of the replay: at
	// 288, one day of five-minute telemetry replays in five minutes. Zero
	// or negative means "as fast as the consumer keeps up" (the mode used
	// by tests, benchmarks, and batch-equivalence validation).
	Speedup float64
	// Buffer is the event-channel depth in steps (default 8). The bound
	// applies backpressure: a slow consumer stalls the replay clock
	// instead of growing an unbounded queue.
	Buffer int
	// FoldEverySteps is how often the ingestor refreshes the live
	// knowledge base from its accumulators (default one hour of steps).
	FoldEverySteps int
	// MaxClassifyPerSub mirrors kb.ExtractOptions.MaxClassifyPerSub so
	// live profiles converge to the batch knowledge base (default 24).
	MaxClassifyPerSub int
	// ShortBinMinutes mirrors kb.ExtractOptions.ShortBinMinutes
	// (default 30).
	ShortBinMinutes int
	// StartStep makes the replay begin at the given grid step instead of 0,
	// the resume-from-checkpoint entry point. VMs alive at StartStep appear
	// in the first batch without a creation event (exactly like VMs that
	// predate the window), and lifecycle events before StartStep are not
	// re-emitted.
	StartStep int
	// MaxLatenessSteps is the reorder bound the ingestor tolerates: a
	// sample whose Step lags the carrying batch's Step by at most this many
	// steps is buffered and folded in order; anything older than the
	// resulting watermark is quarantined. Default 3; negative disables
	// reordering (strictly in-order input required).
	MaxLatenessSteps int
	// GapPolicy selects how a per-VM gap (dropped or quarantined samples)
	// is repaired once the watermark passes it. Default GapCarry.
	GapPolicy GapPolicy
	// Shards is the number of independent ingestor shards the stream is
	// partitioned across by subscription (DESIGN.md §11). 0 or 1 runs the
	// single in-process ingestor; values above MaxShards are clamped. The
	// merged knowledge base is bit-exact with the single-shard result on
	// clean input regardless of the setting.
	Shards int
	// WrapSource, when set, wraps the pipeline's replayer before ingestion
	// starts. This is the fault-injection hook: internal/faultgen cannot be
	// imported from this package without a cycle, so the pipeline accepts
	// any Source decorator instead.
	WrapSource func(Source) Source
	// FoldObserver, when non-nil, is notified synchronously around every
	// publication of the knowledge base: FoldBegin before a fold starts
	// rewriting the published store, FoldPublished(step) once it is
	// complete and consistent, where step is the fold boundary in grid
	// steps (the final fold at stream end reports Grid.N). The policy
	// engine's snapshot source implements this as a seqlock so readers
	// obtain immutable consistent snapshots without adding work — or
	// allocations — to the ingest hot path. The callbacks run on the
	// ingestion goroutine with internal locks held; they must be cheap
	// and must not call back into ingestion.
	FoldObserver FoldObserver
}

// FoldObserver brackets knowledge-base fold publications. Implementations
// must be safe for use from the ingestion goroutine and O(1): snapshot
// materialization belongs on the reader side, not in the fold.
type FoldObserver interface {
	// FoldBegin marks the published store as inconsistent (a fold is
	// rewriting it).
	FoldBegin()
	// FoldPublished marks the store consistent again as of the given fold
	// boundary (grid steps).
	FoldPublished(step int)
}

func (o Options) withDefaults(stepsPerHour int) Options {
	if o.Buffer <= 0 {
		o.Buffer = 8
	}
	if o.FoldEverySteps <= 0 {
		o.FoldEverySteps = stepsPerHour
	}
	if o.MaxClassifyPerSub == 0 {
		o.MaxClassifyPerSub = 24
	}
	if o.ShortBinMinutes == 0 {
		o.ShortBinMinutes = 30
	}
	if o.StartStep < 0 {
		o.StartStep = 0
	}
	switch {
	case o.MaxLatenessSteps == 0:
		o.MaxLatenessSteps = 3
	case o.MaxLatenessSteps < 0:
		o.MaxLatenessSteps = 0
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Shards > MaxShards {
		o.Shards = MaxShards
	}
	return o
}

// MaxShards bounds Options.Shards: sharding buys nothing beyond the core
// count of any plausible host, and the checkpoint validator rejects files
// claiming more.
const MaxShards = 64

// GapPolicy selects how the ingestor repairs a missing per-VM sample once
// the watermark establishes it will never arrive.
type GapPolicy int

const (
	// GapCarry repeats the VM's last observed utilization across the gap
	// (the zero value: utilization is a slowly varying signal, so holding
	// the last reading biases aggregates the least).
	GapCarry GapPolicy = iota
	// GapSkip ingests nothing for the gap. Counts stay exact but the VM's
	// sample index slips against the grid, trading hour-of-day fidelity
	// for zero synthesized data.
	GapSkip
	// GapInterpolate fills the gap with the linear ramp between the last
	// observed reading and the one that closed the gap.
	GapInterpolate
)

// String returns the flag spelling of the policy.
func (g GapPolicy) String() string {
	switch g {
	case GapSkip:
		return "skip"
	case GapInterpolate:
		return "interpolate"
	default:
		return "carry"
	}
}

// MarshalText renders the flag spelling, so policies embedded in JSON
// reports round-trip through ParseGapPolicy.
func (g GapPolicy) MarshalText() ([]byte, error) { return []byte(g.String()), nil }

// UnmarshalText parses a flag spelling, accepting exactly what
// ParseGapPolicy accepts.
func (g *GapPolicy) UnmarshalText(b []byte) error {
	p, err := ParseGapPolicy(string(b))
	if err != nil {
		return err
	}
	*g = p
	return nil
}

// ParseGapPolicy parses a flag spelling ("carry", "skip", "interpolate").
func ParseGapPolicy(s string) (GapPolicy, error) {
	switch s {
	case "", "carry":
		return GapCarry, nil
	case "skip":
		return GapSkip, nil
	case "interpolate":
		return GapInterpolate, nil
	}
	return GapCarry, fmt.Errorf("stream: unknown gap policy %q (want carry, skip, or interpolate)", s)
}

// ColPoolStats is a column pool's allocation ledger, surfaced per shard at
// GET /api/v1/live/ingest. Steady state on a healthy replay is Allocated
// frozen at warm-up while Reused and Returned climb — a growing Allocated
// means the pool is being outsized (active set still growing) and a
// growing Dropped means buffers are leaking past the pool's bound.
type ColPoolStats struct {
	// Allocated counts fresh column pairs created because the free list
	// was empty or its buffers were too small.
	Allocated int64 `json:"allocated"`
	// Reused counts column pairs served from the free list.
	Reused int64 `json:"reused"`
	// Returned counts column pairs accepted back into the free list.
	Returned int64 `json:"returned"`
	// Dropped counts column pairs discarded because the free list was
	// full (bounded, so a slow consumer cannot grow it) or under-sized
	// buffers evicted to make room for right-sized ones.
	Dropped int64 `json:"dropped"`
}

// colPair is one recyclable column set: parallel VM-id and CPU slices.
type colPair struct {
	vm  []int32
	cpu []float32
}

// colPool recycles column pairs through a bounded free list with an
// allocation ledger. The bound covers every buffer that can be in flight
// at once between a producer and the ingestor: the event channel (Buffer
// batches), the consumer's reorder ring (which holds each stolen column
// pair for up to MaxLatenessSteps+1 steps before the fold recycles it),
// and one batch being synthesized — Buffer + MaxLatenessSteps + 2 total.
// get and put are safe for concurrent use.
type colPool struct {
	free chan colPair

	allocated atomic.Int64
	reused    atomic.Int64
	returned  atomic.Int64
	dropped   atomic.Int64
}

func newColPool(slots int) *colPool {
	return &colPool{free: make(chan colPair, slots)}
}

// get returns a column pair of length n, reusing a recycled pair when one
// with enough capacity is available. An under-sized pooled pair is
// discarded (counted as Dropped) so the pool converges on the high-water
// active-set size instead of cycling too-small buffers forever.
func (p *colPool) get(n int) ([]int32, []float32) {
	select {
	case c := <-p.free:
		if cap(c.vm) >= n && cap(c.cpu) >= n {
			p.reused.Add(1)
			return c.vm[:n], c.cpu[:n]
		}
		p.dropped.Add(1)
	default:
	}
	p.allocated.Add(1)
	return make([]int32, n), make([]float32, n)
}

// getEmpty returns a length-zero column pair for append-style filling (the
// shard router's partitioning path), reusing a recycled pair when one is
// available. Capacity is not checked: append regrows an under-sized pair
// once, and the grown pair re-enters the pool, so the free list converges
// on the partition high-water mark.
func (p *colPool) getEmpty(hint int) ([]int32, []float32) {
	select {
	case c := <-p.free:
		p.reused.Add(1)
		return c.vm[:0], c.cpu[:0]
	default:
	}
	p.allocated.Add(1)
	return make([]int32, 0, hint), make([]float32, 0, hint)
}

// put accepts a column pair back. Pairs beyond the pool's bound are
// dropped, keeping memory bounded regardless of consumer behavior.
func (p *colPool) put(vm []int32, cpu []float32) {
	if vm == nil && cpu == nil {
		return
	}
	select {
	case p.free <- colPair{vm: vm[:0], cpu: cpu[:0]}:
		p.returned.Add(1)
	default:
		p.dropped.Add(1)
	}
}

func (p *colPool) stats() ColPoolStats {
	return ColPoolStats{
		Allocated: p.allocated.Load(),
		Reused:    p.reused.Load(),
		Returned:  p.returned.Load(),
		Dropped:   p.dropped.Load(),
	}
}

// Replayer walks a trace in simulated time and emits one columnar StepBatch
// per grid step through a bounded channel. Sample synthesis for a step fans
// out over the worker pool; pacing (when Speedup > 0) sleeps between steps
// so the emission rate matches the configured time compression.
type Replayer struct {
	tr   *trace.Trace
	opts Options
	ch   chan StepBatch
	// pool recycles delivered column pairs back to the emitter so the
	// steady-state hot path allocates nothing per step.
	pool *colPool

	stepsEmitted   atomic.Int64
	samplesEmitted atomic.Int64
}

// NewReplayer returns a replayer for the trace. Options follow the
// documented defaults.
func NewReplayer(tr *trace.Trace, opts Options) *Replayer {
	opts = opts.withDefaults(tr.Grid.StepsPerHour())
	return &Replayer{
		tr:   tr,
		opts: opts,
		ch:   make(chan StepBatch, opts.Buffer),
		// The pool covers every column pair that can be in flight at once:
		// the channel, plus the consumer's reorder ring (which holds each
		// pair for up to MaxLatenessSteps extra steps before recycling),
		// plus the pair being synthesized.
		pool: newColPool(opts.Buffer + opts.MaxLatenessSteps + 2),
	}
}

// Events returns the batch channel. It is closed when the replay finishes
// or the context passed to Run is cancelled.
func (r *Replayer) Events() <-chan StepBatch { return r.ch }

// Recycle hands a delivered batch's columns back to the replayer. The
// caller must not retain the batch's slices afterwards. Late rows never
// originate here, so they are ignored; a decorator that synthesized them
// (internal/faultgen) intercepts Recycle to reclaim them first.
func (r *Replayer) Recycle(b StepBatch) {
	r.pool.put(b.VM, b.CPU)
}

// PoolStats reports the column pool's allocation ledger — the vitals
// behind the zero-steady-state-allocation contract of the hot path.
func (r *Replayer) PoolStats() ColPoolStats { return r.pool.stats() }

// StepsEmitted returns the number of sampling steps emitted so far.
func (r *Replayer) StepsEmitted() int64 { return r.stepsEmitted.Load() }

// SamplesEmitted returns the number of samples emitted so far.
func (r *Replayer) SamplesEmitted() int64 { return r.samplesEmitted.Load() }

// Run replays the whole observation window, blocking until the final batch
// has been delivered or the context is cancelled. It closes the event
// channel on return, so consumers range over Events. Run must be called at
// most once.
func (r *Replayer) Run(ctx context.Context) error {
	defer close(r.ch)
	g := r.tr.Grid
	vms := r.tr.VMs
	start := r.opts.StartStep
	if start > g.N {
		// The checkpoint already covered the whole window, including the
		// trailing lifecycle batch; there is nothing left to replay.
		return nil
	}

	// Index lifecycle events once: creations in start order, deletions
	// bucketed by their (window-clipped) step. VMs whose deletion precedes
	// StartStep were fully handled before the checkpoint and are skipped.
	order := make([]int32, 0, len(vms))
	createdAt := make(map[int][]int32)
	deletedAt := make(map[int][]int32)
	for i := range vms {
		v := &vms[i]
		if v.CreatedStep >= g.N || v.DeletedStep <= 0 || v.DeletedStep < start {
			continue // never alive inside the (remaining) window
		}
		if v.DeletedStep <= g.N {
			deletedAt[v.DeletedStep] = append(deletedAt[v.DeletedStep], int32(i))
		}
		if v.DeletedStep <= start {
			// Deleted exactly at the resume step: the deletion event is
			// still owed, but sampling ended before the checkpoint.
			continue
		}
		order = append(order, int32(i))
		if v.CreatedStep >= 0 {
			createdAt[v.CreatedStep] = append(createdAt[v.CreatedStep], int32(i))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &vms[order[i]], &vms[order[j]]
		if a.CreatedStep != b.CreatedStep {
			return a.CreatedStep < b.CreatedStep
		}
		return order[i] < order[j]
	})

	active := make([]int32, 0, len(order))
	posOf := make([]int32, len(vms))
	for i := range posOf {
		posOf[i] = -1
	}
	next := 0

	// Pacing follows an absolute schedule: step s+1 is released at
	// wallStart + (s+1-start)*interval rather than interval after the
	// previous step finished. Per-step relative sleeps accumulate timer
	// wake-up latency (hundreds of µs each on an idle runtime), which
	// over a few thousand steps stretches the replay well past its
	// nominal rate; anchoring to the start keeps the emitted rate exact
	// as long as the consumer keeps up.
	var interval time.Duration
	if r.opts.Speedup > 0 {
		interval = time.Duration(float64(g.Step) / r.opts.Speedup)
	}
	wallStart := time.Now()

	for s := start; s < g.N; s++ {
		for _, idx := range deletedAt[s] {
			pos := posOf[idx]
			if pos < 0 {
				continue
			}
			last := int32(len(active) - 1)
			active[pos] = active[last]
			posOf[active[pos]] = pos
			active = active[:last]
			posOf[idx] = -1
		}
		for next < len(order) && vms[order[next]].CreatedStep <= s {
			idx := order[next]
			posOf[idx] = int32(len(active))
			active = append(active, idx)
			next++
		}

		// Synthesize the step's columns: the VM column is a straight copy
		// of the active set, the CPU column a parallel float32 pass over
		// the per-VM usage models.
		vmCol, cpuCol := r.pool.get(len(active))
		copy(vmCol, active)
		parallel.ForEachChunk(len(active), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				cpuCol[i] = float32(vms[active[i]].Usage.At(g, s))
			}
		})

		b := StepBatch{Step: s, VM: vmCol, CPU: cpuCol, Created: createdAt[s], Deleted: deletedAt[s]}
		if err := r.send(ctx, b); err != nil {
			return err
		}
		r.stepsEmitted.Add(1)
		r.samplesEmitted.Add(int64(len(vmCol)))

		if interval > 0 && s+1 < g.N {
			due := wallStart.Add(time.Duration(s+1-start) * interval)
			if d := time.Until(due); d > 0 {
				if err := sleepCtx(ctx, d); err != nil {
					return err
				}
			}
		}
	}

	// Close the window: deletions falling exactly on Grid.N end inside the
	// observation span (the batch pipeline's WithinWindow includes them).
	return r.send(ctx, StepBatch{Step: g.N, Deleted: deletedAt[g.N]})
}

// send delivers one batch, counting backpressure: a full channel means the
// consumer is slower than the replay clock, so the non-blocking first
// attempt failing is exactly one stall. The occupancy gauge tracks the
// channel depth right after each delivery. Cancellation is consulted before
// the fast path: a consumer that keeps draining never fills the channel, so
// the blocking branch alone would let a cancelled replay run to the end.
func (r *Replayer) send(ctx context.Context, b StepBatch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case r.ch <- b:
	default:
		mStalls.Inc()
		select {
		case r.ch <- b:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	mOccupancy.SetInt(len(r.ch))
	return nil
}

// sleepCtx sleeps for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
