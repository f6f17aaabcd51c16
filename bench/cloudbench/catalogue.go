package main

// The metric catalogue. BENCHMARK.json at the root of the repository
// declares the same names, units, directions and bounds; catalogue_test.go
// holds the two together. bench/README.md explains each entry.

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// The end-to-end metrics every workload reports. The harness contract
// wants every end-to-end metric on every workload, so these are slots
// whose meaning is fixed per workload (workloadDef.Slots); the issue's own
// metric names are reported beside them as the "named" rows of a result.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// named are the issue's end-to-end names, each reported on the workloads
// it is defined on. They carry the same bound as the slot they feed.
var named = map[string]metricDef{
	"batch_s":              {"batch_s", "s", "lower", 0.25},
	"ingest_samples_per_s": {"ingest_samples_per_s", "1/s", "higher", 0.25},
	"fold_p50_ms":          {"fold_p50_ms", "ms", "lower", 0.25},
	"fold_p90_ms":          {"fold_p90_ms", "ms", "lower", 0.25},
	"checkpoint_s":         {"checkpoint_s", "s", "lower", 0},
	"resume_s":             {"resume_s", "s", "lower", 0},
	"read_p50_ms":          {"read_p50_ms", "ms", "lower", 0.25},
	"read_send_p95_ms":     {"read_send_p95_ms", "ms", "lower", 0},
	"read_p99_ms":          {"read_p99_ms", "ms", "lower", 0},
	"decide_p50_ms":        {"decide_p50_ms", "ms", "lower", 0},
	"decide_p99_ms":        {"decide_p99_ms", "ms", "lower", 0},
	"reads_per_s":          {"reads_per_s", "1/s", "higher", 0.25},
	"failed_share":         {"failed_share", "ratio", "lower", 0},
}

// workloadDef is one benchmark workload: its name, the one-line reason it
// exists, what each end-to-end slot means on it, and the code that runs it.
type workloadDef struct {
	Name string
	Why  string
	// Slots maps work_per_s, op_p50_ms and op_tail_ms to the named metric
	// (or plain description) they carry on this workload.
	Slots map[string]string
	run   func(*run) error
}

var workloads = []workloadDef{
	{
		Name: "batch-week",
		Why:  "CPU week at scale 1.0 through Characterize, WriteReport, ExtractKnowledgeBase, the paper's batch pipeline: analyze, classify, periodic, fft, SeriesCache, parallel, kb.Extract work and stream does not",
		Slots: map[string]string{
			"work_per_s": "VM samples characterised per second (alive VM-steps of the trace / batch_s)",
			"op_p50_ms":  "batch_s, in ms",
			"op_tail_ms": "batch_s, in ms (under 20 operations a run: no higher percentile is measurable)",
		},
		run: runBatchWeek,
	},
	{
		Name: "ingest-clean",
		Why:  "CPU week at scale 0.5 replayed unpaced through stream.Pipeline, one shard, hourly folds, ReadSource bound: the per-sample hot path and the fold; no fault, shard, checkpoint or HTTP code runs",
		Slots: map[string]string{
			"work_per_s": "ingest_samples_per_s",
			"op_p50_ms":  "fold_p50_ms: how long one hourly fold keeps readers out",
			"op_tail_ms": "fold_p90_ms",
		},
		run: runIngestClean,
	},
	{
		Name: "ingest-rough",
		Why:  "serverless scale 10, one-minute grid, two shards, drop/dup/delay/corrupt faults, then checkpoint, load, resume: family branch, reorder ring, dedup, shard routing, barrier merge, gob+gzip recovery",
		Slots: map[string]string{
			"work_per_s": "ingest_samples_per_s (checkpoint and resume excluded)",
			"op_p50_ms":  "checkpoint_s + resume_s, in ms: the time to make the state durable and recover it",
			"op_tail_ms": "checkpoint_s + resume_s, in ms (under 20 operations a run)",
		},
		run: runIngestRough,
	},
	{
		Name: "serve-live",
		Why:  "the built wkbserver replaying a paced CPU week (scale 0.5) under open-loop reads at 200/s and policy decisions at 100/s, then closed-loop reads: HTTP, encode, gzip, conditional GET, rebuild, policy",
		Slots: map[string]string{
			"work_per_s": "reads_per_s (drained, closed loop, median 0.25 s window)",
			"op_p50_ms":  "read_p50_ms (ingesting, open loop, from due time)",
			"op_tail_ms": "read_p50_ms again: no tail of the ingesting phase repeats on this box (read_p99_ms, read_send_p95_ms are reported without a bound)",
		},
		run: runServeLive,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// perLayer lists every per-layer metric, in the order the issue groups
// them. A traced run of a workload measures the ones its layers take
// part in and reports the others as 0.
var perLayer = []metricDef{
	{"trace_overhead_pct", "%", "lower", 0},

	{"workload.generate_s", "s", "lower", 0},
	{"workload.generate_serverless_s", "s", "lower", 0},

	{"analyze.fig1a_s", "s", "lower", 0},
	{"analyze.fig1b_s", "s", "lower", 0},
	{"analyze.fig2_s", "s", "lower", 0},
	{"analyze.fig3a_s", "s", "lower", 0},
	{"analyze.fig3b_s", "s", "lower", 0},
	{"analyze.fig3c_s", "s", "lower", 0},
	{"analyze.fig3d_s", "s", "lower", 0},
	{"analyze.fig4a_s", "s", "lower", 0},
	{"analyze.fig4b_s", "s", "lower", 0},
	{"analyze.fig5samples_s", "s", "lower", 0},
	{"analyze.fig5d_s", "s", "lower", 0},
	{"analyze.fig6weekly_s", "s", "lower", 0},
	{"analyze.fig6daily_s", "s", "lower", 0},
	{"analyze.fig7a_s", "s", "lower", 0},
	{"analyze.fig7b_s", "s", "lower", 0},
	{"analyze.fig7c_s", "s", "lower", 0},
	{"analyze.characterize_s", "s", "lower", 0},
	{"analyze.report_s", "s", "lower", 0},
	{"kb.extract_s", "s", "lower", 0},
	{"trace.seriescache_hits", "count", "higher", 0},
	{"trace.seriescache_misses", "count", "lower", 0},
	{"parallel.dispatches", "count", "lower", 0},
	{"parallel.tasks", "count", "lower", 0},
	{"classify.classify_ns_per_series", "ns", "lower", 0},
	{"classify.invocation_ns_per_series", "ns", "lower", 0},
	{"periodic.detect_ns_per_series", "ns", "lower", 0},

	{"sketch.autocorr_add_ns", "ns", "lower", 0},
	{"sketch.histogram_observeall_ns_per_sample", "ns", "lower", 0},
	{"sketch.welford_add_ns", "ns", "lower", 0},

	{"stream.replay.synth_s", "s", "lower", 0},
	{"stream.replay.wait_s", "s", "lower", 0},
	{"stream.replay.stalls", "count", "lower", 0},

	{"stream.ingest.observe_s", "s", "lower", 0},
	{"stream.ingest.observe_ns_per_sample", "ns", "lower", 0},
	{"stream.ingest.fold_s", "s", "lower", 0},
	{"stream.ingest.fold_p50_ms", "ms", "lower", 0},
	{"stream.ingest.folds", "count", "lower", 0},
	{"stream.ingest.finish_s", "s", "lower", 0},
	{"stream.ingest.allocs_per_sample", "1/sample", "lower", 0},
	{"stream.ingest.bytes_per_sample", "B/sample", "lower", 0},
	{"stream.ingest.uncovered_pct", "%", "lower", 0},

	{"faultgen.inject_s", "s", "lower", 0},
	{"faultgen.dropped", "count", "lower", 0},
	{"faultgen.duplicated", "count", "lower", 0},
	{"faultgen.delayed", "count", "lower", 0},
	{"faultgen.corrupted", "count", "lower", 0},
	{"stream.ingest.reordered", "count", "lower", 0},
	{"stream.ingest.duplicates_dropped", "count", "lower", 0},
	{"stream.ingest.quarantined", "count", "lower", 0},
	{"stream.ingest.gap_fills", "count", "lower", 0},
	{"stream.ingest.useful_share", "ratio", "higher", 0},

	{"stream.shard.route_s", "s", "lower", 0},
	{"stream.shard.merge_s", "s", "lower", 0},
	{"stream.shard.merges", "count", "lower", 0},
	{"stream.shard.stalls", "count", "lower", 0},
	{"stream.shard.skew", "ratio", "lower", 0},

	{"stream.checkpoint.write_s", "s", "lower", 0},
	{"stream.checkpoint.bytes", "B", "lower", 0},
	{"stream.checkpoint.load_s", "s", "lower", 0},
	{"stream.checkpoint.restore_s", "s", "lower", 0},

	{"stream.read.rebuild_p50_ms", "ms", "lower", 0},
	{"stream.read.rebuild_total_s", "s", "lower", 0},
	{"kb.fingerprint_p50_ms", "ms", "lower", 0},
	{"kb.newsnapshot_ms", "ms", "lower", 0},
	{"kb.page_encode_us", "us", "lower", 0},
	{"kb.gzip_memo_ms", "ms", "lower", 0},
	{"policy.decide_us", "us", "lower", 0},

	{"http.summary_p50_ms", "ms", "lower", 0},
	{"http.summary_gzip_p50_ms", "ms", "lower", 0},
	{"http.percentiles_p50_ms", "ms", "lower", 0},
	{"http.regions_p50_ms", "ms", "lower", 0},
	{"http.profiles_page_p50_ms", "ms", "lower", 0},
	{"http.profile_p50_ms", "ms", "lower", 0},
	{"http.conditional_p50_ms", "ms", "lower", 0},
	{"http.decide_p50_ms", "ms", "lower", 0},
	{"http.decide_p99_ms", "ms", "lower", 0},
	{"http.read_due_p99_ms", "ms", "lower", 0},
	{"http.first_after_fold_p50_ms", "ms", "lower", 0},
	{"http.not_modified_share", "ratio", "higher", 0},
	{"http.loadgen_late_p99_ms", "ms", "lower", 0},
	{"policy.server_decide_mean_ms", "ms", "lower", 0},
	{"policy.ledger_entries", "count", "lower", 0},
	{"stream.ingest.live_fold_mean_ms", "ms", "lower", 0},
	{"stream.replay.live_stalls", "count", "lower", 0},
	{"obs.rss_mb_per_1k_decisions", "MB", "lower", 0},
}

// size holds everything about a run that -smoke shrinks: scales divide by
// ten (with a floor), iteration loops stop after one pass and phases last
// three seconds. Rates, mixes, shard counts and fault shares never change.
type size struct {
	batchScale   float64
	cleanScale   float64
	roughScale   float64
	serveScale   float64
	probeSeries  int // series the classify/periodic probes time
	probeValues  int // values in the canned sketch column
	oneIteration bool
	phaseSeconds float64 // 0: derive phases from -seconds
}

var fullSize = size{batchScale: 1.0, cleanScale: 0.5, roughScale: 10, serveScale: 0.5,
	probeSeries: 2000, probeValues: 1 << 20}

var smokeSize = size{batchScale: 0.1, cleanScale: 0.05, roughScale: 1, serveScale: 0.05,
	probeSeries: 200, probeValues: 1 << 17, oneIteration: true, phaseSeconds: 3}
