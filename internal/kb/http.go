package kb

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"

	"cloudlens/internal/core"
)

// The v1 HTTP surface. Batch routes live here; cmd/wkbserver registers the
// live-replay routes onto the same mux through Register so both halves of
// the API share one route table, one error envelope, and one middleware
// stack:
//
//	GET /healthz                     readiness (ok | ingesting)
//	GET /api/v1/                     machine-readable route index
//	GET /api/v1/version              build info (module, VCS revision, Go)
//	GET /api/v1/summary              per-platform aggregates
//	GET /api/v1/profiles             profile list; filters: cloud=private|public,
//	                                 minAgnostic=<float>, pattern=<name>,
//	                                 minShortLived=<float>; paging: limit, cursor
//	GET /api/v1/profiles/{id}        one profile
//
// All responses are JSON. Errors — including the mux's own 404 and 405
// verdicts, via WithJSONErrors — use the envelope
//
//	{"error":{"code":"<machine code>","message":"<human text>"}}
//
// Listing routes answer a bare array by default and switch to the
// paginated ListPage envelope when limit or cursor is present (page.go).
// Unknown query parameters are rejected with code unknown_param.
//
// The handler is read-only; extraction happens offline via Extract or
// incrementally via the streaming ingestor.

// ErrorBody is the uniform JSON error envelope of every /api/v1 route.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a stable machine-readable code alongside the human
// message. Codes in use: bad_request, not_found, method_not_allowed.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Health is the /healthz payload. Status is "ok" when the knowledge base
// is fully built and "ingesting" while a live replay is still filling it —
// the readiness contract load balancers and wkbctl watch share. The
// fault-tolerance fields appear only on a replaying server: they surface
// input quality (quarantined and deduplicated samples, watermark lag) and
// checkpoint freshness at the readiness probe, so an operator sees a
// degrading feed without scraping /metrics.
type Health struct {
	Status               string  `json:"status"`
	Step                 int     `json:"step,omitempty"`
	Steps                int     `json:"steps,omitempty"`
	Quarantined          int64   `json:"quarantined,omitempty"`
	DuplicatesDropped    int64   `json:"duplicatesDropped,omitempty"`
	WatermarkLag         int     `json:"watermarkLag,omitempty"`
	LastCheckpointAgeSec float64 `json:"lastCheckpointAgeSec,omitempty"`
	// Shards breaks the vitals out per ingestion shard, one entry per
	// shard on a replaying server; absent on batch servers.
	Shards []ShardHealth `json:"shards,omitempty"`
	// Policy carries the online policy engine's vitals; absent when the
	// server runs without -policies.
	Policy *PolicyVitals `json:"policy,omitempty"`
}

// ShardHealth is one ingestion shard's slice of the /healthz vitals, so a
// probe shows a lagging or fault-heavy shard instead of one blended
// number. The top-level Health fields remain the cross-shard aggregate.
type ShardHealth struct {
	Shard             int   `json:"shard"`
	Step              int   `json:"step"`
	SamplesIngested   int64 `json:"samplesIngested"`
	Quarantined       int64 `json:"quarantined,omitempty"`
	DuplicatesDropped int64 `json:"duplicatesDropped,omitempty"`
	WatermarkLag      int   `json:"watermarkLag,omitempty"`
}

// VersionInfo is the /api/v1/version payload, assembled from the binary's
// embedded build info.
type VersionInfo struct {
	Module    string `json:"module"`
	Version   string `json:"version"`
	GoVersion string `json:"goVersion"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

var readVersion = sync.OnceValue(func() VersionInfo {
	v := VersionInfo{Module: "cloudlens", Version: "devel"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	v.GoVersion = info.GoVersion
	if info.Main.Path != "" {
		v.Module = info.Main.Path
	}
	if info.Main.Version != "" && info.Main.Version != "(devel)" {
		v.Version = info.Main.Version
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			v.Revision = s.Value
		case "vcs.modified":
			v.Modified = s.Value == "true"
		}
	}
	return v
})

// RouteOptions customizes Register for the embedding server.
type RouteOptions struct {
	// Health supplies the /healthz payload; nil reports a constant "ok"
	// (batch mode: the knowledge base is complete before serving starts).
	Health func() Health
	// Wrap instruments each route handler (obs.HTTPMetrics.Wrap); nil
	// leaves routes bare. The route argument is the stable metric label —
	// the pattern with the method stripped — not the raw request path, so
	// per-route series stay bounded.
	Wrap func(route string, h http.Handler) http.Handler
}

// ParamInfo documents one query or path parameter in the route index.
type ParamInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Doc  string `json:"doc"`
}

// Cache-validation classes advertised per route in the index, so clients
// know which routes reward conditional requests.
const (
	// CacheSnapshot: the response carries the knowledge-base snapshot's
	// ETag and Last-Modified; If-None-Match answers 304 until the next
	// fold publishes a different profile set.
	CacheSnapshot = "snapshot"
	// CacheContent: the ETag derives from the payload itself (build info,
	// route index) rather than a snapshot.
	CacheContent = "content"
	// CacheNone: the payload is volatile (progress counters, fault
	// ledgers, metrics) and never answers 304.
	CacheNone = "none"
)

// RouteInfo is one row of the machine-readable route index served at
// GET /api/v1/.
type RouteInfo struct {
	Method  string      `json:"method"`
	Pattern string      `json:"pattern"`
	Doc     string      `json:"doc"`
	Params  []ParamInfo `json:"params,omitempty"`
	// Cache names the route's cache-validation class: snapshot, content,
	// or none.
	Cache string `json:"cache,omitempty"`
}

// RouteTable is the registry behind GET /api/v1/: every route mounted
// through Register lands here, and the embedding server adds its own
// (live, metrics) rows through Add before serving starts. The index
// handler reads the table per request, so rows added after Register are
// visible without re-mounting.
type RouteTable struct {
	mu     sync.RWMutex
	routes []RouteInfo
}

// Add appends one route description to the index.
func (t *RouteTable) Add(ri RouteInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routes = append(t.routes, ri)
}

// Routes returns the documented routes sorted by pattern then method.
func (t *RouteTable) Routes() []RouteInfo {
	t.mu.RLock()
	out := make([]RouteInfo, len(t.routes))
	copy(out, t.routes)
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pattern != out[j].Pattern {
			return out[i].Pattern < out[j].Pattern
		}
		return out[i].Method < out[j].Method
	})
	return out
}

// RouteIndex is the GET /api/v1/ payload.
type RouteIndex struct {
	Routes []RouteInfo `json:"routes"`
}

// FilterParamInfo documents the shared profile-filter grammar; listing
// routes append PageParamInfo for the paging half.
func FilterParamInfo() []ParamInfo {
	return []ParamInfo{
		{Name: "cloud", Type: "string", Doc: "restrict to one platform: private | public"},
		{Name: "minAgnostic", Type: "float", Doc: "minimum region-agnostic score"},
		{Name: "pattern", Type: "string", Doc: "dominant pattern name (e.g. diurnal, stable)"},
		{Name: "minShortLived", Type: "float", Doc: "minimum short-lived VM share"},
	}
}

// PageParamInfo documents the cursor-paging grammar of listing routes.
func PageParamInfo() []ParamInfo {
	return []ParamInfo{
		{Name: "limit", Type: "int", Doc: "page size (1-1000); presence switches to the {items,next_cursor,total} envelope"},
		{Name: "cursor", Type: "string", Doc: "opaque position token from a previous page's next_cursor"},
	}
}

func listParamInfo() []ParamInfo { return append(FilterParamInfo(), PageParamInfo()...) }

// contentETag renders a content-derived entity tag: quoted FNV-1a 64 over
// the value's JSON encoding.
func contentETag(v interface{}) string {
	h := fnv.New64a()
	_ = json.NewEncoder(h).Encode(v)
	return fmt.Sprintf("\"fnv1a:%016x\"", h.Sum64())
}

// versionETag is fixed for the process lifetime, like the payload.
var versionETag = sync.OnceValue(func() string { return contentETag(readVersion()) })

// Register installs the batch knowledge-base routes onto mux using
// method-qualified patterns, so the mux itself enforces GET-only access
// and WithJSONErrors turns its 404/405 verdicts into the shared envelope.
// Every read is served from src's immutable snapshot — one consistent
// point-in-time view per request, with the snapshot fingerprint as ETag —
// so writers never block readers and repeated GETs between publications
// are byte-identical. It returns the route table backing GET /api/v1/;
// the embedding server documents any additional routes it mounts via
// RouteTable.Add.
func Register(mux *http.ServeMux, src SnapshotSource, opts RouteOptions) *RouteTable {
	wrap := opts.Wrap
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	table := &RouteTable{}
	handle := func(pattern, route, doc, cache string, params []ParamInfo, h http.HandlerFunc) {
		mux.Handle(pattern, wrap(route, h))
		table.Add(RouteInfo{Method: "GET", Pattern: route, Doc: doc, Params: params, Cache: cache})
	}

	handle("GET /healthz", "/healthz",
		"readiness: ok once the knowledge base is complete, ingesting during a live replay", CacheNone, nil,
		func(w http.ResponseWriter, r *http.Request) {
			h := Health{Status: "ok"}
			if opts.Health != nil {
				h = opts.Health()
			}
			WriteJSON(w, http.StatusOK, h)
		})
	// {$} pins the exact path: /api/v1/ serves the index while deeper
	// unknown paths still fall through to the enveloped 404.
	handle("GET /api/v1/{$}", "/api/v1/",
		"this route index", CacheContent, nil,
		func(w http.ResponseWriter, r *http.Request) {
			idx := RouteIndex{Routes: table.Routes()}
			WriteContentJSON(w, r, contentETag(idx), idx)
		})
	handle("GET /api/v1/version", "/api/v1/version",
		"build info: module, version, VCS revision, Go toolchain", CacheContent, nil,
		func(w http.ResponseWriter, r *http.Request) {
			WriteContentJSON(w, r, versionETag(), readVersion())
		})
	handle("GET /api/v1/summary", "/api/v1/summary",
		"per-platform aggregates keyed by cloud name", CacheSnapshot, nil,
		func(w http.ResponseWriter, r *http.Request) {
			sn := src.Snapshot()
			// Aggregated once per snapshot, encoded once per snapshot:
			// a burst of summary reads between folds is a header check
			// plus one buffer write each.
			body := sn.Memo("kb.summary.json", func() interface{} {
				out := map[string]Summary{
					core.Private.String(): sn.Summarize(core.Private),
					core.Public.String():  sn.Summarize(core.Public),
				}
				return encodeJSON(out)
			}).([]byte)
			WriteSnapshotRaw(w, r, sn, "kb.summary.json", body)
		})
	handle("GET /api/v1/profiles", "/api/v1/profiles",
		"batch profile list; bare array, or the paginated envelope with limit/cursor", CacheSnapshot, listParamInfo(),
		func(w http.ResponseWriter, r *http.Request) {
			q, pg, err := ParseListParams(r)
			if err != nil {
				WriteParamError(w, err)
				return
			}
			sn := src.Snapshot()
			WriteProfileList(w, r, sn, sn, q, pg)
		})
	handle("GET /api/v1/profiles/{id}", "/api/v1/profiles/{id}",
		"one batch profile by subscription id", CacheSnapshot,
		[]ParamInfo{{Name: "id", Type: "path", Doc: "subscription id"}},
		func(w http.ResponseWriter, r *http.Request) {
			sn := src.Snapshot()
			WriteProfile(w, r, sn, sn, core.SubscriptionID(r.PathValue("id")))
		})
	return table
}

// encodeJSON marshals v exactly like WriteJSON's streaming encoder
// (trailing newline included), for payloads memoized as bytes.
func encodeJSON(v interface{}) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// Mirror WriteJSON: encoding errors on these payload types cannot
		// happen; an empty body is the deterministic fallback.
		return []byte("\n")
	}
	return append(data, '\n')
}

// NewHandler exposes a knowledge-base store over HTTP with the shared
// error envelope — the standalone (uninstrumented) form of the v1 surface.
// Reads go through a version-gated StoreSource, so a store that is still
// being written serves each request from a consistent immutable snapshot
// and a finished store costs one snapshot total.
func NewHandler(store *Store) http.Handler {
	mux := http.NewServeMux()
	Register(mux, NewStoreSource(store, 0, nil), RouteOptions{})
	return WithJSONErrors(mux)
}

// WithJSONErrors wraps a route table so the mux's own fallback responses —
// 404 for unknown paths, 405 (with the Allow header) for method
// mismatches — carry the same JSON envelope as handler-written errors,
// instead of net/http's plaintext bodies.
func WithJSONErrors(mux *http.ServeMux) http.Handler {
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
			WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "method not allowed")
		case 0, http.StatusNotFound:
			WriteError(w, http.StatusNotFound, "not_found", "not found")
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

// ParseQuery translates the filter parameters (cloud, minAgnostic,
// pattern, minShortLived) into a store query, ignoring anything else.
// Listing routes use the strict ParseListParams instead; this form stays
// for callers that embed the filter grammar inside a wider query string.
func ParseQuery(r *http.Request) (Query, error) {
	return parseFilters(r.URL.Query())
}

func errBadParam(name string) error {
	return &ParamError{Code: "bad_param", Message: "invalid query parameter: " + name}
}

// WriteJSON writes a JSON success body. Shared by every v1 route, batch
// and live.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header write can only be logged; for this
	// read-only API the client sees a truncated body and retries.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the uniform error envelope.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	WriteJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: message}})
}
