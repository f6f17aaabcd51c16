package stream

import (
	"strconv"

	"cloudlens/internal/core"
	"cloudlens/internal/obs"
)

// Streaming-pipeline metrics, resolved once at package init so the hot
// path never touches the registry: ingestion does a few atomic adds per
// *batch* (never per sample), classification one add per classified VM,
// and folds one histogram observation each. The allocation budget is
// gated by make bench-stream-gate on the traced ingest-clean workload's
// stream.ingest.allocs_per_sample.
var (
	mStalls = obs.Default.Counter("cloudlens_stream_backpressure_stalls_total",
		"Times the replayer blocked on a full event channel (consumer slower than the replay clock).")
	mOccupancy = obs.Default.Gauge("cloudlens_stream_channel_occupancy",
		"Event-channel depth observed at the last emit.")
	mCheckpoints = obs.Default.Counter("cloudlens_stream_checkpoints_total",
		"Checkpoints written (renamed into place whole, not fsynced).")
	mCheckpointSeconds = obs.Default.Histogram("cloudlens_stream_checkpoint_duration_seconds",
		"Wall-clock duration of checkpoint writes (capture + encode + write + rename).", obs.DefLatencyBuckets)
	mCheckpointBytes = obs.Default.Gauge("cloudlens_stream_checkpoint_bytes",
		"Size of the most recent checkpoint file.")
	mCheckpointLoadSeconds = obs.Default.Histogram("cloudlens_stream_checkpoint_load_duration_seconds",
		"Wall-clock duration of checkpoint loads (read + checksum + decode + validate).", obs.DefLatencyBuckets)
	mMergeSeconds = obs.Default.Histogram("cloudlens_stream_merge_duration_seconds",
		"Wall-clock duration of hour-barrier shard merges (quiesce + fold into the published snapshot).", obs.DefLatencyBuckets)

	// mClassified counts streaming classifications performed, by resulting
	// pattern: one when a qualified VM retires, and at every fold one per
	// live qualified VM that survives the per-subscription cap (the fold
	// selects before it classifies, so discarded candidates cost and count
	// nothing). Indexed by core.Pattern so the classifier does an array
	// load, not a map lookup. Shared across shards: counters are atomic.
	mClassified = func() []*obs.Counter {
		patterns := append([]core.Pattern{core.PatternUnknown}, core.AllPatterns()...)
		max := core.Pattern(0)
		for _, p := range patterns {
			if p > max {
				max = p
			}
		}
		out := make([]*obs.Counter, max+1)
		for _, p := range patterns {
			out[p] = obs.Default.Counter("cloudlens_stream_classified_total",
				"Streaming VM classifications performed (at retirement, and per fold for live VMs inside the per-subscription cap), by resulting pattern.",
				obs.Label{Name: "pattern", Value: p.String()})
		}
		return out
	}()
)

// ingestMetrics bundles one shard's instruments, every series labelled
// with the shard. The obs registry dedups by (name, labels), so
// constructing the same set twice returns the same handles.
type ingestMetrics struct {
	samples            *obs.Counter
	steps              *obs.Counter
	foldSeconds        *obs.Histogram
	reordered          *obs.Counter
	duplicates         *obs.Counter
	quarantinedCorrupt *obs.Counter
	quarantinedLate    *obs.Counter
	gapsFilled         *obs.Counter
	watermarkLag       *obs.Gauge
}

func newIngestMetrics(labels ...obs.Label) *ingestMetrics {
	with := func(extra ...obs.Label) []obs.Label {
		return append(append([]obs.Label(nil), extra...), labels...)
	}
	return &ingestMetrics{
		samples: obs.Default.Counter("cloudlens_stream_samples_total",
			"Utilization samples folded into live state.", labels...),
		steps: obs.Default.Counter("cloudlens_stream_steps_total",
			"Grid steps ingested.", labels...),
		foldSeconds: obs.Default.Histogram("cloudlens_stream_fold_duration_seconds",
			"Wall-clock duration of live knowledge-base folds.", obs.DefLatencyBuckets, labels...),

		// Fault-tolerance counters: the ingestor's ledger of reordered,
		// deduplicated, quarantined, and repaired input (DESIGN.md §8). All
		// sit off the clean-stream hot path — a clean replay touches only
		// the watermark-lag gauge, once per batch.
		reordered: obs.Default.Counter("cloudlens_stream_reordered_total",
			"Samples delivered in a later batch than their step and buffered back into order.", labels...),
		duplicates: obs.Default.Counter("cloudlens_stream_duplicates_dropped_total",
			"Samples dropped because the VM's series already covered their step.", labels...),
		quarantinedCorrupt: obs.Default.Counter("cloudlens_stream_quarantined_total",
			"Samples refused by the ingestor, by reason.",
			with(obs.Label{Name: "reason", Value: "corrupt"})...),
		quarantinedLate: obs.Default.Counter("cloudlens_stream_quarantined_total",
			"Samples refused by the ingestor, by reason.",
			with(obs.Label{Name: "reason", Value: "late"})...),
		gapsFilled: obs.Default.Counter("cloudlens_stream_gap_fills_total",
			"Samples synthesized to repair per-VM gaps (carry or interpolate policy).", labels...),
		watermarkLag: obs.Default.Gauge("cloudlens_stream_watermark_lag_steps",
			"Distance in steps between the newest delivered batch and the fold watermark.", labels...),
	}
}

// shardMetrics returns the instruments shard i reports through: its own
// shard-labelled set, so a one-shard engine's series read shard="0".
func shardMetrics(i int) *ingestMetrics {
	return newIngestMetrics(shardLabel(i))
}

// shardLabel renders a shard id as the label every per-shard series carries.
func shardLabel(i int) obs.Label {
	return obs.Label{Name: "shard", Value: strconv.Itoa(i)}
}
