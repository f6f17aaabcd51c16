// Package cloudlens is a from-scratch, stdlib-only Go reproduction of
// "How Different are the Cloud Workloads? Characterizing Large-Scale
// Private and Public Cloud Workloads" (Qin et al., Microsoft, DSN 2023).
//
// The original study analyzes one week of proprietary Azure telemetry. This
// package substitutes a calibrated synthetic substrate — a cloud-platform
// simulator with regions, clusters, racks, nodes, an allocation service,
// and generative workload models for both platforms — and then runs the
// paper's full characterization pipeline over the generated trace:
//
//   - deployment characteristics (Figures 1-4): deployment and VM sizes,
//     lifetimes, temporal creation patterns, multi-region spread;
//   - resource utilization (Figures 5-6): the diurnal / stable / irregular /
//     hourly-peak taxonomy and utilization distributions;
//   - similarity structure (Figure 7): VM-to-node and cross-region
//     utilization correlations, including the region-agnostic ServiceX;
//   - the management pilots: chance-constrained over-subscription, spot-VM
//     valley harvesting, the Canada region-shift pilot, deferrable-workload
//     valley scheduling, and the workload knowledge base of Section V.
//
// Quick start:
//
//	tr, err := cloudlens.GenerateDefault(42)
//	if err != nil { ... }
//	ch := cloudlens.Characterize(tr)
//	ch.WriteReport(os.Stdout)
//
// Everything is deterministic in the seed; no network or wall-clock access.
package cloudlens

import (
	"net/http"
	"time"

	"cloudlens/internal/balance"
	"cloudlens/internal/core"
	"cloudlens/internal/faultgen"
	"cloudlens/internal/kb"
	"cloudlens/internal/oversub"
	"cloudlens/internal/policy"
	"cloudlens/internal/spot"
	"cloudlens/internal/stream"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// Core data types, aliased from the implementation packages so users of
// the cloudlens module never import internal paths directly.
type (
	// Trace is one simulated week of VM inventory and utilization for
	// both platforms.
	Trace = trace.Trace
	// VM is a single trace record.
	VM = trace.VM
	// Config controls synthetic-trace generation.
	Config = workload.Config
	// ServerlessConfig controls generation of the serverless/FaaS
	// invocation workload family (per-function invocation-count series on
	// a sub-five-minute grid).
	ServerlessConfig = workload.ServerlessConfig
	// KnowledgeBase is the paper's centralized workload knowledge base
	// (Section V): per-subscription profiles extracted from telemetry.
	KnowledgeBase = kb.Store
	// Profile is one subscription's extracted workload knowledge.
	Profile = kb.Profile
)

// Streaming ingestion types: the incremental counterpart of the batch
// pipeline, continuously folding replayed telemetry into knowledge-base
// state (see DESIGN.md, "Streaming ingestion").
type (
	// StreamOptions tunes the replay/ingestion pipeline (speedup, channel
	// depth, fold cadence).
	StreamOptions = stream.Options
	// StreamPipeline replays a trace in simulated time and keeps a live
	// knowledge base current while samples arrive.
	StreamPipeline = stream.Pipeline
	// StreamStatus is a point-in-time view of replay progress.
	StreamStatus = stream.Status
	// LiveSummary is the incremental per-cloud characterization snapshot.
	LiveSummary = stream.Summary
	// LiveProfile is a knowledge-base profile augmented with streaming
	// sketch estimates (utilization quantiles, sample counters).
	LiveProfile = stream.LiveProfile
	// StreamFaultStats is the ingestor's ledger of input imperfections:
	// reordered, deduplicated, quarantined, and repaired samples.
	StreamFaultStats = stream.FaultStats
	// StreamShardVital is one ingestion shard's progress and fault ledger
	// on a sharded pipeline (StreamOptions.Shards > 1).
	StreamShardVital = stream.ShardVital
	// StreamIngestVital is one ingestion shard's columnar hot-path vitals:
	// folded column batches, fill ratio, reorder-ring occupancy, and the
	// column free-list ledger.
	StreamIngestVital = stream.IngestVital
	// GapPolicy selects how per-VM sample gaps are repaired (carry, skip,
	// interpolate).
	GapPolicy = stream.GapPolicy
	// StreamReadSource serves immutable LiveSnapshots of a live engine,
	// rebuilt after each fold — the source behind the whole live read
	// surface (Bind the pipeline's engine before serving).
	StreamReadSource = stream.ReadSource
	// LivePercentiles is the per-pattern utilization-band report served by
	// GET /api/v1/live/percentiles.
	LivePercentiles = stream.PercentilesReport
	// RegionRollup is one region's aggregate served by
	// GET /api/v1/live/regions.
	RegionRollup = kb.RegionRollup
	// Checkpoint is a restartable snapshot of streaming-ingestion state.
	Checkpoint = stream.Checkpoint
	// CheckpointInfo describes the most recent durable checkpoint.
	CheckpointInfo = stream.CheckpointInfo
	// FaultSpec describes a seeded telemetry fault mix for injection.
	FaultSpec = faultgen.Spec
	// FaultInjector perturbs a replay according to a FaultSpec and keeps
	// an exact ledger of what it did.
	FaultInjector = faultgen.Injector
	// FaultLedger is the injector's exact account of injected faults.
	FaultLedger = faultgen.Ledger
)

// Online policy engine types: pluggable policies deciding live
// placement/admission requests against immutable KB snapshots, with an
// append-only decision ledger and counterfactual replay (see DESIGN.md,
// "Online policy engine").
type (
	// PolicyEngine evaluates requests and appends every decision to its
	// ledger.
	PolicyEngine = policy.Engine
	// PolicyEngineOptions tunes trace level, counterfactual depth, and
	// the optional latency clock.
	PolicyEngineOptions = policy.Options
	// PolicyRequest is one placement/admission ask.
	PolicyRequest = policy.Request
	// PolicyDecision is one append-only ledger entry.
	PolicyDecision = policy.Decision
	// PolicyCounterfactual is the regret report replaying one entry.
	PolicyCounterfactual = policy.Counterfactual
	// PolicyCounterfactualAlt is one re-scored rejected alternative.
	PolicyCounterfactualAlt = policy.CounterfactualAlt
	// PolicySnapshotSource hands the engine its evaluation snapshots.
	PolicySnapshotSource = kb.SnapshotSource
	// SubscriptionID identifies one subscription across the system.
	SubscriptionID = core.SubscriptionID
)

// ParsePolicySpec builds policies from the -policies grammar, e.g.
// "oversub:risk=4,spot,balance".
func ParsePolicySpec(spec string) ([]policy.Policy, error) {
	return policy.ParseSpec(spec)
}

// NewPolicyEngine builds a decision engine over a snapshot source.
func NewPolicyEngine(src PolicySnapshotSource, policies []policy.Policy, opts PolicyEngineOptions) (*PolicyEngine, error) {
	return policy.NewEngine(src, policies, opts)
}

// NewStreamReadSource returns an unbound read source for
// live pipelines; clock stamps each snapshot's publish time (may be nil).
func NewStreamReadSource(clock func() time.Time) *StreamReadSource {
	return stream.NewReadSource(clock)
}

// Policy experiment types.
type (
	// OversubOptions / OversubResult run the chance-constrained
	// over-subscription experiment (Section III-B implication).
	OversubOptions = oversub.Options
	OversubResult  = oversub.Result
	// SpotOptions / SpotResult run the spot-VM valley-harvesting
	// experiment (Section III-B implication).
	SpotOptions = spot.Options
	SpotResult  = spot.Result
	// BalanceOutcome is the Canada region-shift pilot's before/after
	// comparison (Section IV-B).
	BalanceOutcome = balance.Outcome
	// MixtureOptions / MixtureResult run the dynamic spot/on-demand
	// mixture (the Snape-style batch scheduling the paper cites).
	MixtureOptions = spot.MixtureOptions
	MixtureResult  = spot.MixtureResult
	// KBMergeOptions tunes the knowledge base's continuous update.
	KBMergeOptions = kb.MergeOptions
)

// DefaultConfig returns the calibrated generator configuration documented
// in DESIGN.md. Override fields selectively before calling Generate.
func DefaultConfig(seed uint64) Config {
	return workload.DefaultConfig(seed)
}

// Generate produces a synthetic week-long trace from the configuration.
func Generate(cfg Config) (*Trace, error) {
	return workload.Generate(cfg)
}

// GenerateDefault produces a trace with the default configuration at the
// given seed.
func GenerateDefault(seed uint64) (*Trace, error) {
	return workload.Generate(workload.DefaultConfig(seed))
}

// DefaultServerlessConfig returns the calibrated serverless-family
// configuration: two days of one-minute invocation-rate samples.
func DefaultServerlessConfig(seed uint64) ServerlessConfig {
	return workload.DefaultServerlessConfig(seed)
}

// GenerateServerless produces a serverless-family trace: Zipf-skewed
// function popularity, diurnal burst envelopes, cold-start damping. The
// resulting trace flows through the same batch and streaming pipelines as
// the CPU family, classified under the bursty/steady/spiky/diurnal
// invocation taxonomy.
func GenerateServerless(cfg ServerlessConfig) (*Trace, error) {
	return workload.GenerateServerless(cfg)
}

// ParseServerlessSpec parses the -serverless flag grammar ("" selects the
// defaults), e.g. "apps=24,fns=8,zipf=1.1,cold=0.35,step=30s,days=2,seed=7".
func ParseServerlessSpec(spec string) (ServerlessConfig, error) {
	return workload.ParseServerlessSpec(spec)
}

// LoadTrace reads a trace saved with (*Trace).SaveFile.
func LoadTrace(path string) (*Trace, error) {
	return trace.LoadFile(path)
}

// ExtractKnowledgeBase builds the workload knowledge base from a trace.
func ExtractKnowledgeBase(t *Trace) *KnowledgeBase {
	return kb.Extract(t, kb.ExtractOptions{})
}

// KnowledgeBaseHandler exposes a knowledge base over HTTP (JSON API); see
// package kb for the route table.
func KnowledgeBaseHandler(store *KnowledgeBase) http.Handler {
	return kb.NewHandler(store)
}

// NewStreamPipeline builds a stopped streaming pipeline over the trace.
// Start it with a context, then read Status/Summary/Profiles while it runs;
// its KB() converges to ExtractKnowledgeBase's output once the replay ends.
func NewStreamPipeline(t *Trace, opts StreamOptions) *StreamPipeline {
	return stream.NewPipeline(t, opts)
}

// ParseGapPolicy parses a gap-policy name: carry | skip | interpolate.
func ParseGapPolicy(s string) (GapPolicy, error) {
	return stream.ParseGapPolicy(s)
}

// ParseFaultSpec parses the fault-injection grammar, e.g.
// "drop=0.01,dup=0.005,delay=0.002:3,corrupt=0.001,seed=1"; "" and "off"
// disable injection.
func ParseFaultSpec(s string) (FaultSpec, error) {
	return faultgen.ParseSpec(s)
}

// LoadStreamCheckpoint reads a checkpoint written by
// (*StreamPipeline).SaveCheckpoint and validates it against the trace.
func LoadStreamCheckpoint(path string, t *Trace) (*Checkpoint, error) {
	return stream.LoadCheckpointFile(path, t)
}

// ResumeStreamPipeline builds a stopped pipeline that continues ingestion
// from the checkpoint instead of step 0.
func ResumeStreamPipeline(t *Trace, opts StreamOptions, ck *Checkpoint) (*StreamPipeline, error) {
	return stream.NewResumedPipeline(t, opts, ck)
}

// RunOversubscription executes the chance-constrained over-subscription
// sweep on a trace.
func RunOversubscription(t *Trace, opts OversubOptions) (OversubResult, error) {
	return oversub.Run(t, opts)
}

// RunSpotHarvest executes the spot-VM valley-harvesting simulation.
func RunSpotHarvest(t *Trace, opts SpotOptions) (SpotResult, error) {
	return spot.Run(t, opts)
}

// RunRegionBalance executes the Canada pilot: it extracts (or reuses) the
// knowledge base, recommends a region-agnostic workload shift from source
// to dest, and evaluates it. Pass a nil store to extract one on the fly.
func RunRegionBalance(t *Trace, store *KnowledgeBase, source, dest string) (BalanceOutcome, error) {
	if store == nil {
		store = ExtractKnowledgeBase(t)
	}
	return balance.Run(t, store, source, dest)
}

// RunSpotMixture simulates a deadline batch job under the on-demand,
// spot-only, and dynamic-mixture acquisition policies.
func RunSpotMixture(t *Trace, opts MixtureOptions) ([]MixtureResult, error) {
	return spot.RunMixture(t, opts)
}

// CheapestReliable returns the lowest-cost mixture policy among those that
// met the deadline.
func CheapestReliable(results []MixtureResult) (MixtureResult, bool) {
	return spot.CheapestReliable(results)
}
