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
//
// This package is the library surface that the examples, the benchmark and
// external callers use: aliases of the core types, the generators, the
// knowledge base and the pilot runners, plus the characterization it
// defines itself (characterize.go, export.go). The streaming, fault and
// policy machinery has one name, in its internal package; the commands
// under cmd/ import those packages directly.
package cloudlens

import (
	"net/http"

	"cloudlens/internal/balance"
	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/oversub"
	"cloudlens/internal/server"
	"cloudlens/internal/spot"
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
	// (Section V): an immutable snapshot of per-subscription profiles
	// extracted from telemetry.
	KnowledgeBase = kb.Snapshot
	// Profile is one subscription's extracted workload knowledge.
	Profile = kb.Profile
	// SubscriptionID identifies one subscription across the system.
	SubscriptionID = core.SubscriptionID
)

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

// LoadTrace reads a trace saved with (*Trace).SaveFile.
func LoadTrace(path string) (*Trace, error) {
	return trace.LoadFile(path)
}

// ExtractKnowledgeBase builds the workload knowledge base from a trace.
func ExtractKnowledgeBase(t *Trace) *KnowledgeBase {
	return kb.Extract(t, kb.ExtractOptions{})
}

// MergeKnowledgeBase folds a newer extraction into prev, the paper's
// continuous update, and returns the result; prev is left as it was.
func MergeKnowledgeBase(prev, next *KnowledgeBase, opts KBMergeOptions) *KnowledgeBase {
	return kb.Merge(prev, next, opts)
}

// KnowledgeBaseHandler exposes a knowledge base over HTTP (JSON API): the
// batch-mode surface of wkbserver, whose routes are listed on server.New.
// The snapshot is immutable, so every request reads the same profiles.
func KnowledgeBaseHandler(base *KnowledgeBase) http.Handler {
	return server.New(base, nil, nil, nil, nil)
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
// to dest, and evaluates it. Pass a nil knowledge base to extract one on
// the fly.
func RunRegionBalance(t *Trace, base *KnowledgeBase, source, dest string) (BalanceOutcome, error) {
	if base == nil {
		base = ExtractKnowledgeBase(t)
	}
	return balance.Run(t, base, source, dest)
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
