package main

import (
	"log/slog"
	"net/http"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/faultgen"
	"cloudlens/internal/kb"
	"cloudlens/internal/obs"
	"cloudlens/internal/policy"
	"cloudlens/internal/stream"
)

// newHandler assembles the server's unified v1 route table: the batch
// knowledge-base API (kb.Register), the live ingestion endpoints, and the
// operational surface — all behind one mux with method-qualified patterns,
// one JSON error envelope (kb.WithJSONErrors), and one metrics middleware:
//
//	GET /healthz                     readiness: ok | ingesting, plus fault counters
//	GET /metrics                     Prometheus text exposition
//	GET /api/v1/                     machine-readable route index
//	GET /api/v1/version              build info
//	GET /api/v1/summary              batch per-platform aggregates
//	GET /api/v1/profiles[?filters]   batch profile list (paginated with limit/cursor)
//	GET /api/v1/profiles/{id}        one batch profile
//	GET /api/v1/live/status          replay progress counters
//	GET /api/v1/live/summary         incremental per-cloud characterization
//	GET /api/v1/live/percentiles     per-pattern utilization bands
//	GET /api/v1/live/regions         per-region rollups
//	GET /api/v1/live/profiles        live profiles; same filter+paging grammar
//	GET /api/v1/live/profiles/{id}   one live profile
//	GET /api/v1/live/faults          ingestion fault ledger, injector ledger, checkpoint age
//	GET /api/v1/live/ingest          columnar hot-path vitals per shard
//
// Every route mounted here is also documented in the kb.RouteTable behind
// GET /api/v1/, so clients (wkbctl routes) can discover the surface.
//
// The policy engine adds its decision surface on top (see
// internal/policy):
//
//	POST /api/v1/policy/decide                        evaluate one request
//	GET  /api/v1/policy/decisions[?policy&limit&cursor]  decision ledger
//	GET  /api/v1/policy/decisions/{id}/counterfactual    regret replay
//
// Reads are snapshot-backed: every GET that reflects knowledge-base state
// is served from an immutable snapshot of src (readSrc on a replaying
// server, a version-gated StoreSource in batch mode), carries the snapshot's
// ETag/Last-Modified, and honors If-None-Match / If-Modified-Since with
// 304. Only the volatile routes — status, faults, healthz, metrics,
// policy — bypass validation.
//
// Without a replay the live routes answer 404 so clients can distinguish
// "server runs in batch mode" from transport errors; the policy routes do
// the same without -policies. readSrc must be non-nil exactly when pipe
// is; inj is non-nil only when -faults injection is active; peng is nil
// without -policies; reqLog may be nil to disable per-request logging.
func newHandler(src kb.SnapshotSource, pipe *stream.Pipeline, readSrc *stream.ReadSource, inj *faultgen.Injector, peng *policy.Engine, reqLog *slog.Logger) http.Handler {
	metrics := obs.NewHTTPMetrics(obs.Default, reqLog)
	mux := http.NewServeMux()
	table := kb.Register(mux, src, kb.RouteOptions{
		Health: healthFn(pipe, peng),
		Wrap:   metrics.Wrap,
	})
	policy.RegisterRoutes(mux, table, peng, metrics.Wrap)

	// live wires one replay-backed route: the handler runs only when a
	// pipeline is attached, and only for GET (the mux enforces the method).
	live := func(pattern, route, doc, cache string, params []kb.ParamInfo, h func(w http.ResponseWriter, r *http.Request)) {
		mux.Handle(pattern, metrics.Wrap(route, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if pipe == nil {
				kb.WriteError(w, http.StatusNotFound, "not_found",
					"no live replay (start wkbserver with -replay)")
				return
			}
			h(w, r)
		})))
		table.Add(kb.RouteInfo{Method: "GET", Pattern: route, Doc: doc + " (requires -replay)", Params: params, Cache: cache})
	}
	live("GET /api/v1/live/status", "/api/v1/live/status",
		"replay progress counters", kb.CacheNone, nil,
		func(w http.ResponseWriter, r *http.Request) {
			kb.WriteJSON(w, http.StatusOK, pipe.Status())
		})
	live("GET /api/v1/live/summary", "/api/v1/live/summary",
		"incremental per-cloud characterization", kb.CacheSnapshot, nil,
		func(w http.ResponseWriter, r *http.Request) {
			ls := readSrc.Live()
			kb.WriteSnapshotRaw(w, r, ls.KB(), "live.summary.json", ls.SummaryJSON())
		})
	live("GET /api/v1/live/percentiles", "/api/v1/live/percentiles",
		"per-pattern utilization bands from merged sketches", kb.CacheSnapshot, nil,
		func(w http.ResponseWriter, r *http.Request) {
			ls := readSrc.Live()
			kb.WriteSnapshotRaw(w, r, ls.KB(), "live.percentiles.json", ls.PercentilesJSON())
		})
	live("GET /api/v1/live/regions", "/api/v1/live/regions",
		"per-region rollups of the live knowledge base", kb.CacheSnapshot, nil,
		func(w http.ResponseWriter, r *http.Request) {
			ls := readSrc.Live()
			kb.WriteSnapshotRaw(w, r, ls.KB(), "live.regions.json", ls.RegionsJSON())
		})
	live("GET /api/v1/live/profiles", "/api/v1/live/profiles",
		"live profile list; bare array, or the paginated envelope with limit/cursor", kb.CacheSnapshot,
		append(kb.FilterParamInfo(), kb.PageParamInfo()...),
		func(w http.ResponseWriter, r *http.Request) {
			q, pg, err := kb.ParseListParams(r)
			if err != nil {
				kb.WriteParamError(w, err)
				return
			}
			ls := readSrc.Live()
			kb.WriteProfileList(w, r, ls.KB(), ls, q, pg)
		})
	live("GET /api/v1/live/profiles/{id}", "/api/v1/live/profiles/{id}",
		"one live profile by subscription id", kb.CacheSnapshot,
		[]kb.ParamInfo{{Name: "id", Type: "path", Doc: "subscription id"}},
		func(w http.ResponseWriter, r *http.Request) {
			ls := readSrc.Live()
			kb.WriteProfile(w, r, ls.KB(), ls, core.SubscriptionID(r.PathValue("id")))
		})
	live("GET /api/v1/live/faults", "/api/v1/live/faults",
		"ingestion fault ledger: quarantined/deduplicated samples, watermark lag, per-shard vitals, injector counts, checkpoint age", kb.CacheNone, nil,
		func(w http.ResponseWriter, r *http.Request) {
			kb.WriteJSON(w, http.StatusOK, faultsPayload(pipe, inj))
		})
	live("GET /api/v1/live/ingest", "/api/v1/live/ingest",
		"columnar hot-path vitals per shard: folded column batches, fill ratio, reorder-ring occupancy, column-pool ledger", kb.CacheNone, nil,
		func(w http.ResponseWriter, r *http.Request) {
			kb.WriteJSON(w, http.StatusOK, IngestReport{Shards: pipe.IngestVitals()})
		})

	mux.Handle("GET /metrics", metrics.Wrap("/metrics", obs.Default))
	table.Add(kb.RouteInfo{Method: "GET", Pattern: "/metrics", Doc: "Prometheus text exposition", Cache: kb.CacheNone})
	return kb.WithJSONErrors(mux)
}

// FaultsReport is the /api/v1/live/faults payload: the ingestor's ledger
// of input imperfections, the fault injector's ground truth (when -faults
// is active), and checkpoint freshness.
type FaultsReport struct {
	Stream stream.FaultStats `json:"stream"`
	// Injected is the fault injector's exact ledger; absent without -faults.
	Injected *faultgen.Ledger `json:"injected,omitempty"`
	// FaultSpec echoes the active -faults grammar; absent without -faults.
	FaultSpec string `json:"faultSpec,omitempty"`
	// LastCheckpoint describes the newest durable checkpoint; absent until
	// one has been written.
	LastCheckpoint *stream.CheckpointInfo `json:"lastCheckpoint,omitempty"`
	// LastCheckpointAgeSec is the checkpoint's age at response time.
	LastCheckpointAgeSec float64 `json:"lastCheckpointAgeSec,omitempty"`
	// Shards breaks the stream ledger out per ingestion shard, one entry per
	// shard. Stream remains the cross-shard aggregate.
	Shards []stream.ShardVital `json:"shards,omitempty"`
}

// IngestReport is the /api/v1/live/ingest payload: one columnar hot-path
// vitals entry per ingestion shard (a single entry for an unsharded
// replay).
type IngestReport struct {
	Shards []stream.IngestVital `json:"shards"`
}

func faultsPayload(pipe *stream.Pipeline, inj *faultgen.Injector) FaultsReport {
	out := FaultsReport{Stream: pipe.FaultStats(), Shards: pipe.ShardVitals()}
	if inj != nil {
		led := inj.Ledger()
		out.Injected = &led
		out.FaultSpec = inj.Spec().String()
	}
	if info, ok := pipe.LastCheckpoint(); ok {
		out.LastCheckpoint = &info
		out.LastCheckpointAgeSec = time.Since(info.At).Seconds()
	}
	return out
}

// healthFn derives the /healthz readiness payload from the replay state:
// "ingesting" while a replay is still filling the knowledge base, "ok"
// once it finishes (or immediately in batch mode, where extraction
// completes before the listener opens). On a replaying server the payload
// also carries the fault-tolerance vitals — quarantined and deduplicated
// samples, watermark lag, checkpoint age — so the probe shows a degrading
// feed directly. With -policies the payload additionally carries the
// policy engine's vitals (decision counters, ledger depth, and the
// identity of the snapshot currently served to policies).
func healthFn(pipe *stream.Pipeline, peng *policy.Engine) func() kb.Health {
	if pipe == nil && peng == nil {
		return nil
	}
	return func() kb.Health {
		h := kb.Health{Status: "ok"}
		if peng != nil {
			v := peng.Vitals()
			h.Policy = &v
		}
		if pipe == nil {
			return h
		}
		st := pipe.Status()
		h.Step, h.Steps = st.Step, st.Steps
		if !st.Done {
			h.Status = "ingesting"
		}
		fs := pipe.FaultStats()
		h.Quarantined = fs.QuarantinedCorrupt + fs.QuarantinedLate
		h.DuplicatesDropped = fs.DuplicatesDropped
		h.WatermarkLag = fs.WatermarkLag
		for _, sv := range pipe.ShardVitals() {
			h.Shards = append(h.Shards, kb.ShardHealth{
				Shard:             sv.Shard,
				Step:              sv.Step,
				SamplesIngested:   sv.SamplesIngested,
				Quarantined:       sv.Faults.QuarantinedCorrupt + sv.Faults.QuarantinedLate,
				DuplicatesDropped: sv.Faults.DuplicatesDropped,
				WatermarkLag:      sv.Faults.WatermarkLag,
			})
		}
		if info, ok := pipe.LastCheckpoint(); ok {
			h.LastCheckpointAgeSec = time.Since(info.At).Seconds()
		}
		return h
	}
}
