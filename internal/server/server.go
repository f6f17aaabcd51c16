// Package server is the workload knowledge base's v1 HTTP surface — the
// service the paper's Section V proposes, which optimisers query. New is
// the one place a route is mounted, instrumented, error-wrapped and
// indexed; cmd/wkbserver serves it and cloudlens.KnowledgeBaseHandler
// returns its batch form.
package server

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/faultgen"
	"cloudlens/internal/kb"
	"cloudlens/internal/obs"
	"cloudlens/internal/policy"
	"cloudlens/internal/stream"
)

// New assembles the v1 route table: the batch knowledge-base API, the
// live ingestion endpoints, the policy decision surface and the
// operational routes, all behind one mux with method-qualified patterns,
// one JSON error envelope and one metrics middleware (obs.HTTPMetrics,
// labelled by route pattern):
//
//	GET  /healthz                      readiness: ok | ingesting, fault counters, policy vitals
//	GET  /metrics                      Prometheus text exposition
//	GET  /api/v1/                      machine-readable route index
//	GET  /api/v1/version               build info (module, VCS revision, Go)
//	GET  /api/v1/summary               batch per-platform aggregates
//	GET  /api/v1/profiles              batch profile list; filters cloud=private|public,
//	                                   minAgnostic=<float>, pattern=<name>,
//	                                   minShortLived=<float>; paging limit, cursor
//	GET  /api/v1/profiles/{id}         one batch profile
//	GET  /api/v1/live/status           replay progress counters
//	GET  /api/v1/live/summary          incremental per-cloud characterization
//	GET  /api/v1/live/percentiles      per-pattern utilization bands
//	GET  /api/v1/live/regions          per-region rollups
//	GET  /api/v1/live/profiles         live profiles; same filter and paging grammar
//	GET  /api/v1/live/profiles/{id}    one live profile
//	GET  /api/v1/live/faults           ingestion fault ledger, injector ledger, checkpoint age
//	GET  /api/v1/live/ingest           columnar hot-path vitals per shard
//	POST /api/v1/policy/decide                          evaluate one request
//	GET  /api/v1/policy/decisions[?policy&limit&cursor] decision ledger
//	GET  /api/v1/policy/decisions/{id}/counterfactual   regret replay
//
// The same table, with parameters and cache classes, is served at
// GET /api/v1/; it is fixed when New returns, so its body and ETag are
// encoded once. Errors — the mux's own 404 and 405 verdicts included —
// use the envelope {"error":{"code","message"}}. Listing routes answer a
// bare array, or the {items,next_cursor,total} envelope when limit or
// cursor is present; unknown query parameters are rejected.
//
// Reads are snapshot-backed: every GET that reflects knowledge-base state
// is served from an immutable snapshot of src, carries the snapshot's
// ETag and Last-Modified, and honours If-None-Match and If-Modified-Since
// with 304. The volatile routes — status, faults, ingest, healthz,
// metrics, policy — are never validated.
//
// pipe is the live replay, nil in batch mode; on a replay src must be the
// *stream.ReadSource bound to pipe's engine. Without a replay the live
// routes answer 404 with a hint, and so do the policy routes when peng is
// nil, so clients can tell "not enabled" from a transport error and the
// route index is the same on every server. inj is the -faults injector,
// nil without it; reqLog, when non-nil, logs one debug record per
// request.
func New(src kb.SnapshotSource, pipe *stream.Pipeline, inj *faultgen.Injector, peng *policy.Engine, reqLog *slog.Logger) http.Handler {
	var readSrc *stream.ReadSource
	if pipe != nil {
		readSrc = src.(*stream.ReadSource) // a replay read any other way is a wiring bug
	}
	live := &requirement{flag: "-replay", missing: "no live replay", on: pipe != nil}
	pol := &requirement{flag: "-policies", missing: "no policy engine", on: peng != nil}
	version := newContent(readVersion())
	var index content // encoded from the table below, once it is complete

	routes := []route{
		{RouteInfo{"GET", "/healthz", "readiness: ok once the knowledge base is complete, ingesting during a live replay", nil, CacheNone}, nil,
			func(w http.ResponseWriter, r *http.Request) {
				kb.WriteJSON(w, http.StatusOK, health(pipe, peng))
			}},
		{RouteInfo{"GET", "/api/v1/", "this route index", nil, CacheContent}, nil,
			func(w http.ResponseWriter, r *http.Request) { index.serve(w, r) }},
		{RouteInfo{"GET", "/api/v1/version", "build info: module, version, VCS revision, Go toolchain", nil, CacheContent}, nil, version.serve},
		{RouteInfo{"GET", "/api/v1/summary", "per-platform aggregates keyed by cloud name", nil, CacheSnapshot}, nil,
			func(w http.ResponseWriter, r *http.Request) {
				sn := src.Snapshot()
				// Aggregated once per snapshot, encoded once per snapshot:
				// a burst of summary reads between folds is a header check
				// plus one buffer write each.
				body := sn.Memo("kb.summary.json", func() interface{} {
					return kb.EncodeJSON(map[string]kb.Summary{
						core.Private.String(): sn.Summarize(core.Private),
						core.Public.String():  sn.Summarize(core.Public),
					})
				}).([]byte)
				kb.WriteSnapshotRaw(w, r, sn, "kb.summary.json", body)
			}},
		{RouteInfo{"GET", "/api/v1/profiles", "batch profile list; bare array, or the paginated envelope with limit/cursor", listParams, CacheSnapshot}, nil,
			func(w http.ResponseWriter, r *http.Request) {
				q, pg, err := kb.ParseListParams(r)
				if err != nil {
					kb.WriteParamError(w, err)
					return
				}
				sn := src.Snapshot()
				kb.WriteProfileList(w, r, sn, sn, q, pg)
			}},
		{RouteInfo{"GET", "/api/v1/profiles/{id}", "one batch profile by subscription id", idParam, CacheSnapshot}, nil,
			func(w http.ResponseWriter, r *http.Request) {
				sn := src.Snapshot()
				kb.WriteProfile(w, r, sn, sn, core.SubscriptionID(r.PathValue("id")))
			}},

		// Decisions mutate the ledger and reads follow it live, so no
		// policy response is cache-validatable.
		{RouteInfo{"POST", "/api/v1/policy/decide", "evaluate one placement/admission request and append the decision to the ledger", []ParamInfo{
			{Name: "policy", Type: "string", Doc: "body field: configured policy to consult"},
			{Name: "subscription", Type: "string", Doc: "body field: workload subscription id"},
			{Name: "cores", Type: "int", Doc: "body field: ask size in cores (default 1)"},
			{Name: "regions", Type: "[]string", Doc: "body field: candidate regions (balance)"},
		}, CacheNone}, pol, peng.ServeDecide},
		{RouteInfo{"GET", "/api/v1/policy/decisions", "decision ledger in id order; supports the shared cursor-paging envelope", append([]ParamInfo{
			{Name: "policy", Type: "string", Doc: "restrict to one policy's decisions"},
		}, pageParams...), CacheNone}, pol, peng.ServeDecisions},
		{RouteInfo{"GET", "/api/v1/policy/decisions/{id}/counterfactual", "replay one ledger entry: re-score the chosen action and top-k rejected alternatives, report regret", []ParamInfo{
			{Name: "id", Type: "int", Doc: "path: ledger decision id"},
		}, CacheNone}, pol, peng.ServeCounterfactual},

		{RouteInfo{"GET", "/api/v1/live/status", "replay progress counters", nil, CacheNone}, live,
			func(w http.ResponseWriter, r *http.Request) {
				kb.WriteJSON(w, http.StatusOK, pipe.Status())
			}},
		{RouteInfo{"GET", "/api/v1/live/summary", "incremental per-cloud characterization", nil, CacheSnapshot}, live,
			func(w http.ResponseWriter, r *http.Request) {
				ls := readSrc.Live()
				kb.WriteSnapshotRaw(w, r, ls.KB(), "live.summary.json", ls.SummaryJSON())
			}},
		{RouteInfo{"GET", "/api/v1/live/percentiles", "per-pattern utilization bands from merged sketches", nil, CacheSnapshot}, live,
			func(w http.ResponseWriter, r *http.Request) {
				ls := readSrc.Live()
				kb.WriteSnapshotRaw(w, r, ls.KB(), "live.percentiles.json", ls.PercentilesJSON())
			}},
		{RouteInfo{"GET", "/api/v1/live/regions", "per-region rollups of the live knowledge base", nil, CacheSnapshot}, live,
			func(w http.ResponseWriter, r *http.Request) {
				ls := readSrc.Live()
				kb.WriteSnapshotRaw(w, r, ls.KB(), "live.regions.json", ls.RegionsJSON())
			}},
		{RouteInfo{"GET", "/api/v1/live/profiles", "live profile list; bare array, or the paginated envelope with limit/cursor", listParams, CacheSnapshot}, live,
			func(w http.ResponseWriter, r *http.Request) {
				q, pg, err := kb.ParseListParams(r)
				if err != nil {
					kb.WriteParamError(w, err)
					return
				}
				ls := readSrc.Live()
				kb.WriteProfileList(w, r, ls.KB(), ls, q, pg)
			}},
		{RouteInfo{"GET", "/api/v1/live/profiles/{id}", "one live profile by subscription id", idParam, CacheSnapshot}, live,
			func(w http.ResponseWriter, r *http.Request) {
				ls := readSrc.Live()
				kb.WriteProfile(w, r, ls.KB(), ls, core.SubscriptionID(r.PathValue("id")))
			}},
		{RouteInfo{"GET", "/api/v1/live/faults", "ingestion fault ledger: quarantined/deduplicated samples, watermark lag, per-shard vitals, injector counts, checkpoint age", nil, CacheNone}, live,
			func(w http.ResponseWriter, r *http.Request) {
				kb.WriteJSON(w, http.StatusOK, faultsPayload(pipe, inj))
			}},
		{RouteInfo{"GET", "/api/v1/live/ingest", "columnar hot-path vitals per shard: folded column batches, fill ratio, reorder-ring occupancy, column-pool ledger", nil, CacheNone}, live,
			func(w http.ResponseWriter, r *http.Request) {
				kb.WriteJSON(w, http.StatusOK, IngestReport{Shards: pipe.IngestVitals()})
			}},
		{RouteInfo{"GET", "/metrics", "Prometheus text exposition", nil, CacheNone}, nil, obs.Default.ServeHTTP},
	}

	metrics := obs.NewHTTPMetrics(obs.Default, reqLog)
	mux := http.NewServeMux()
	idx := RouteIndex{Routes: make([]RouteInfo, 0, len(routes))}
	for _, rt := range routes {
		info, h := rt.RouteInfo, rt.serve
		if rt.needs != nil {
			info.Doc += " (requires " + rt.needs.flag + ")"
			if !rt.needs.on {
				h = rt.needs.notFound
			}
		}
		pattern := info.Method + " " + info.Pattern
		if strings.HasSuffix(pattern, "/") {
			// {$} pins the exact path: /api/v1/ serves the index while
			// deeper unknown paths still fall through to the enveloped 404.
			pattern += "{$}"
		}
		// The metric label is the pattern without the method, not the raw
		// request path, so per-route series stay bounded.
		mux.Handle(pattern, metrics.Wrap(info.Pattern, h))
		idx.Routes = append(idx.Routes, info)
	}
	slices.SortFunc(idx.Routes, func(a, b RouteInfo) int {
		return cmp.Or(cmp.Compare(a.Pattern, b.Pattern), cmp.Compare(a.Method, b.Method))
	})
	index = newContent(idx)
	return withJSONErrors(mux)
}

// route is one row of New's table: its index entry, the server mode it
// needs (nil for routes every server answers), and its handler.
type route struct {
	RouteInfo
	needs *requirement
	serve http.HandlerFunc
}

// requirement is a server mode some routes need. The routes are mounted
// and indexed either way; when the mode is off they answer 404 with a hint
// naming the flag that turns it on.
type requirement struct {
	flag, missing string
	on            bool
}

func (q *requirement) notFound(w http.ResponseWriter, _ *http.Request) {
	kb.WriteError(w, http.StatusNotFound, "not_found", q.missing+" (start wkbserver with "+q.flag+")")
}

var idParam = []ParamInfo{{Name: "id", Type: "path", Doc: "subscription id"}}

// content is a JSON payload fixed for the handler's lifetime — build info,
// the route index — encoded once and served under a quoted FNV-1a 64 ETag
// of its bytes.
type content struct {
	body []byte
	etag string
}

func newContent(v interface{}) content {
	body := kb.EncodeJSON(v)
	h := fnv.New64a()
	_, _ = h.Write(body)
	return content{body: body, etag: fmt.Sprintf("\"fnv1a:%016x\"", h.Sum64())}
}

func (c content) serve(w http.ResponseWriter, r *http.Request) {
	kb.WriteContent(w, r, c.etag, c.body)
}

// health derives the /healthz payload: "ingesting" while a replay is
// still filling the knowledge base, "ok" once it finishes (or at once in
// batch mode, where extraction completes before the listener opens). A
// replaying server adds the fault-tolerance vitals — quarantined and
// deduplicated samples, watermark lag, checkpoint age, per shard and in
// aggregate — so the probe shows a degrading feed directly; with
// -policies the payload also carries the policy engine's vitals.
func health(pipe *stream.Pipeline, peng *policy.Engine) Health {
	h := Health{Status: "ok"}
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
		h.Shards = append(h.Shards, ShardHealth{
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

// withJSONErrors wraps the mux so its own fallback responses — 404 for
// unknown paths, 405 (with the Allow header) for method mismatches —
// carry the same JSON envelope as handler-written errors, instead of
// net/http's plaintext bodies.
func withJSONErrors(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Handler reports a matched pattern without dispatching (an empty
		// pattern means the mux would serve its own 404/405). Matched
		// requests must go through mux.ServeHTTP — not the returned
		// handler — so the mux populates r.PathValue for {id} wildcards.
		if _, pattern := mux.Handler(r); pattern != "" {
			mux.ServeHTTP(w, r)
			return
		}
		// Run the mux's fallback against a body-discarding writer: it
		// decides 404 vs 405 and sets response headers (notably Allow) on
		// the real header map; we then write the envelope body.
		probe := headerOnlyWriter{header: w.Header()}
		mux.ServeHTTP(&probe, r)
		switch probe.status {
		case http.StatusMethodNotAllowed:
			kb.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "method not allowed")
		case 0, http.StatusNotFound:
			kb.WriteError(w, http.StatusNotFound, "not_found", "not found")
		default:
			// A redirect (e.g. trailing-slash cleanup) or other verdict:
			// headers are already on w, so just commit the status.
			w.WriteHeader(probe.status)
		}
	})
}

// headerOnlyWriter records the status the mux fallback chooses while
// letting it mutate the real response headers; the plaintext body is
// discarded.
type headerOnlyWriter struct {
	header http.Header
	status int
}

func (w *headerOnlyWriter) Header() http.Header { return w.header }

func (w *headerOnlyWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *headerOnlyWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}
