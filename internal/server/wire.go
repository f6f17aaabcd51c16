package server

import (
	"runtime/debug"

	"cloudlens/internal/faultgen"
	"cloudlens/internal/policy"
	"cloudlens/internal/stream"
)

// The payloads New's own routes answer with. Routes that serve a package's
// type directly (kb.Summary, stream.Status, policy.Decision, ...) are
// documented with that type.

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
	Policy *policy.Vitals `json:"policy,omitempty"`
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

// FaultsReport is the /api/v1/live/faults payload: the ingestor's ledger
// of input imperfections, the fault injector's ground truth (when -faults
// is active), and checkpoint freshness.
type FaultsReport struct {
	Stream stream.FaultStats `json:"stream"`
	// Injected is the fault injector's exact ledger; absent without -faults.
	Injected *faultgen.Ledger `json:"injected,omitempty"`
	// FaultSpec echoes the active -faults grammar; absent without -faults.
	FaultSpec string `json:"faultSpec,omitempty"`
	// LastCheckpoint describes the newest checkpoint written; absent until
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

// VersionInfo is the /api/v1/version payload, assembled from the binary's
// embedded build info.
type VersionInfo struct {
	Module    string `json:"module"`
	Version   string `json:"version"`
	GoVersion string `json:"goVersion"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

func readVersion() VersionInfo {
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
}

// RouteIndex is the GET /api/v1/ payload.
type RouteIndex struct {
	Routes []RouteInfo `json:"routes"`
}

// RouteInfo is one row of the route index.
type RouteInfo struct {
	Method  string      `json:"method"`
	Pattern string      `json:"pattern"`
	Doc     string      `json:"doc"`
	Params  []ParamInfo `json:"params,omitempty"`
	// Cache names the route's cache-validation class: snapshot, content,
	// or none.
	Cache string `json:"cache,omitempty"`
}

// ParamInfo documents one query, path or body parameter in the route
// index.
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
	// ledgers, metrics, policy decisions) and never answers 304.
	CacheNone = "none"
)

// pageParams documents the cursor-paging grammar of listing routes;
// listParams adds the profile-filter grammar in front of it.
var (
	pageParams = []ParamInfo{
		{Name: "limit", Type: "int", Doc: "page size (1-1000); presence switches to the {items,next_cursor,total} envelope"},
		{Name: "cursor", Type: "string", Doc: "opaque position token from a previous page's next_cursor"},
	}
	listParams = append([]ParamInfo{
		{Name: "cloud", Type: "string", Doc: "restrict to one platform: private | public"},
		{Name: "minAgnostic", Type: "float", Doc: "minimum region-agnostic score"},
		{Name: "pattern", Type: "string", Doc: "dominant pattern name (e.g. diurnal, stable)"},
		{Name: "minShortLived", Type: "float", Doc: "minimum short-lived VM share"},
	}, pageParams...)
)
