package stream

import (
	"context"
	"io"
	"sync"
	"time"

	"cloudlens/internal/kb"
	"cloudlens/internal/trace"
)

// Engine is the batch-consuming side of the pipeline: the shard group of
// NewEngine and RestoreEngine, which keeps a continuously refreshed
// knowledge base and exposes race-free snapshots of it. ReadSource, the
// differential gauntlet and cloudbench drive it through this interface;
// Pipeline.Engine hands it out.
type Engine interface {
	// SetRecycler registers where spent batch buffers (sample columns,
	// Late rows) are returned once folded. It must be called before
	// ingestion starts. The engine may recycle one delivered batch's
	// buffers across several calls with the unrelated fields zeroed.
	SetRecycler(func(StepBatch))
	// ObserveBatch accepts one delivered batch; the engine takes ownership
	// of its VM/CPU columns and Late rows.
	ObserveBatch(b StepBatch)
	// Finish drains in-flight state and publishes the final fold.
	Finish()
	// Abort stops the engine's internal goroutines without a final fold,
	// leaving the last published state standing — the cancellation path.
	Abort()
	// KB returns the live knowledge base.
	KB() *kb.Store
	// CaptureLive returns one consistent capture of the published store
	// and the streaming state — the input to a LiveSnapshot.
	CaptureLive() LiveCapture
	// FaultStats returns the ledger of input imperfections.
	FaultStats() FaultStats
	// WriteCheckpoint serializes a resumable snapshot of the engine.
	WriteCheckpoint(w io.Writer) error
	// Progress reports ingestion counters.
	Progress() Progress
	// ShardVitals reports per-shard progress, one entry per shard.
	// Approximate while ingestion runs (no barrier); exact after Finish.
	ShardVitals() []ShardVital
}

// NewEngine builds the ingestion engine: a group of Options.Shards shards,
// whose one-shard case runs inline on the caller's goroutine.
func NewEngine(tr *trace.Trace, opts Options) Engine {
	return newShardGroup(tr, opts.withDefaults(tr.Grid.StepsPerHour()))
}

// Progress is a point-in-time view of engine progress, assembled from
// atomic counters so it never contends with ingestion.
type Progress struct {
	Done            bool
	Step            int
	Steps           int
	SamplesIngested int64
	StepsIngested   int64
	Folds           int64
}

// ShardVital is one shard's progress and fault ledger, served by /healthz
// and /api/v1/live/faults so operators see a lagging or fault-heavy shard
// instead of a single blended number.
type ShardVital struct {
	Shard           int        `json:"shard"`
	Step            int        `json:"step"`
	SamplesIngested int64      `json:"samplesIngested"`
	StepsIngested   int64      `json:"stepsIngested"`
	Faults          FaultStats `json:"faults"`
}

// Pipeline couples a Replayer to the ingestion engine: one goroutine
// replays the trace into the bounded event channel, another feeds each
// batch to the engine. All accessors are safe to call while the pipeline
// runs.
type Pipeline struct {
	tr   *trace.Trace
	opts Options
	src  Source
	eng  *shardGroup

	mu        sync.Mutex
	started   bool
	startedAt time.Time
	cancel    context.CancelFunc
	done      chan struct{}
	err       error
	lastCkpt  CheckpointInfo
}

// NewPipeline builds a stopped pipeline over the trace. When
// Options.WrapSource is set, the replayer is wrapped before ingestion —
// the hook fault injectors decorate.
func NewPipeline(tr *trace.Trace, opts Options) *Pipeline {
	opts = opts.withDefaults(tr.Grid.StepsPerHour())
	return newPipeline(tr, opts, newShardGroup(tr, opts))
}

func newPipeline(tr *trace.Trace, opts Options, eng *shardGroup) *Pipeline {
	var src Source = NewReplayer(tr, opts)
	if opts.WrapSource != nil {
		src = opts.WrapSource(src)
	}
	eng.srcPool, _ = src.(PoolStatser)
	return &Pipeline{
		tr:   tr,
		opts: opts,
		src:  src,
		eng:  eng,
		done: make(chan struct{}),
	}
}

// Start launches the replay and ingestion goroutines. It returns
// immediately; use Wait to block until the replay finishes. Start may be
// called at most once.
func (p *Pipeline) Start(ctx context.Context) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return
	}
	p.started = true
	p.startedAt = time.Now()
	ctx, p.cancel = context.WithCancel(ctx)

	// The engine owns delivered batch buffers until their reorder slot
	// folds, then hands them back to the source's free lists.
	p.eng.SetRecycler(p.src.Recycle)

	errCh := make(chan error, 1)
	go func() { errCh <- p.src.Run(ctx) }()
	go func() {
		defer close(p.done)
		for b := range p.src.Events() {
			p.eng.ObserveBatch(b)
		}
		err := <-errCh
		if err == nil {
			// Only a completed replay yields a finished knowledge base; a
			// cancelled one leaves the last folded state standing.
			p.eng.Finish()
		} else {
			p.eng.Abort()
		}
		p.mu.Lock()
		p.err = err
		p.mu.Unlock()
	}()
}

// Wait blocks until the replay has been fully ingested (or cancelled) and
// returns the replay error, if any.
func (p *Pipeline) Wait() error {
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Stop cancels an in-flight replay and waits for the ingestion goroutine to
// drain. Stopping a finished pipeline is a no-op.
func (p *Pipeline) Stop() {
	p.mu.Lock()
	cancel := p.cancel
	p.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	<-p.done
}

// Status is a point-in-time view of pipeline progress, assembled from
// atomic counters so it never contends with ingestion.
type Status struct {
	Running         bool    `json:"running"`
	Done            bool    `json:"done"`
	Family          string  `json:"family"`
	Step            int     `json:"step"`
	Steps           int     `json:"steps"`
	SamplesIngested int64   `json:"samplesIngested"`
	Folds           int64   `json:"folds"`
	Shards          int     `json:"shards,omitempty"`
	Speedup         float64 `json:"speedup"`
	ElapsedSec      float64 `json:"elapsedSec"`
	SamplesPerSec   float64 `json:"samplesPerSec"`
}

// Status reports replay progress.
func (p *Pipeline) Status() Status {
	p.mu.Lock()
	started := p.started
	startedAt := p.startedAt
	p.mu.Unlock()

	pr := p.eng.Progress()
	st := Status{
		Done:            pr.Done,
		Family:          p.tr.Family.String(),
		Step:            pr.Step,
		Steps:           pr.Steps,
		SamplesIngested: pr.SamplesIngested,
		Folds:           pr.Folds,
		Speedup:         p.opts.Speedup,
	}
	if n := len(p.eng.shards); n > 1 {
		st.Shards = n
	}
	if started {
		select {
		case <-p.done:
		default:
			st.Running = true
		}
		st.ElapsedSec = time.Since(startedAt).Seconds()
		if st.ElapsedSec > 0 {
			st.SamplesPerSec = float64(st.SamplesIngested) / st.ElapsedSec
		}
	}
	return st
}

// FaultStats returns the engine's ledger of input imperfections, summed
// across shards when the pipeline is sharded.
func (p *Pipeline) FaultStats() FaultStats { return p.eng.FaultStats() }

// KB exposes the live knowledge base (e.g. for persisting a snapshot).
func (p *Pipeline) KB() *kb.Store { return p.eng.KB() }

// ShardVitals reports per-shard progress and fault ledgers, one entry per
// shard. While the replay runs the figures are
// approximate — each shard is read without a barrier and may trail the
// router — and they are exact once Wait has returned.
func (p *Pipeline) ShardVitals() []ShardVital { return p.eng.ShardVitals() }

// PoolStatser is a source that can report its column free-list ledger.
// The Replayer implements it; decorators (the fault injector) forward it.
type PoolStatser interface {
	PoolStats() ColPoolStats
}

// IngestVitals reports per-shard columnar-batch vitals, each with the
// ledger of the column pool feeding that shard.
func (p *Pipeline) IngestVitals() []IngestVital { return p.eng.IngestVitals() }

// Engine exposes the underlying ingestion engine.
func (p *Pipeline) Engine() Engine { return p.eng }
