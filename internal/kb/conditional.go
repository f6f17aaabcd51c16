package kb

import (
	"bytes"
	"compress/gzip"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cloudlens/internal/obs"
)

// notModified counts conditional GETs answered 304 — the reads the
// snapshot identity let the server skip entirely.
var notModified = obs.Default.Counter("cloudlens_http_not_modified_total",
	"Conditional requests answered 304 Not Modified from snapshot validators.")

// etagMatches implements the If-None-Match comparison of RFC 9110 §13.1.2:
// a "*" matches any current representation, and listed tags compare weakly
// (a W/ prefix on either side is ignored) — the correct semantics for a
// cache-validation GET.
func etagMatches(header, etag string) bool {
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" {
			return true
		}
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == strings.TrimPrefix(etag, "W/") {
			return true
		}
	}
	return false
}

// checkConditional applies the request's validators against the response's
// ETag and modification time, answering 304 (empty body, validators
// attached) when the client's copy is current. It returns true when the
// response is complete and the handler must not write a body. etag must be
// a quoted entity tag; modified may be zero to disable If-Modified-Since.
//
// Precedence follows RFC 9110: when If-None-Match is present it decides
// alone and If-Modified-Since is ignored.
func checkConditional(w http.ResponseWriter, r *http.Request, etag string, modified time.Time) bool {
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	if !modified.IsZero() {
		w.Header().Set("Last-Modified", modified.UTC().Format(http.TimeFormat))
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return false
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if etag != "" && etagMatches(inm, etag) {
			writeNotModified(w)
			return true
		}
		return false
	}
	if ims := r.Header.Get("If-Modified-Since"); ims != "" && !modified.IsZero() {
		if since, err := http.ParseTime(ims); err == nil {
			// The header carries second resolution; truncate before
			// comparing or every response within the same second misses.
			if !modified.Truncate(time.Second).After(since) {
				writeNotModified(w)
				return true
			}
		}
	}
	return false
}

func writeNotModified(w http.ResponseWriter) {
	w.WriteHeader(http.StatusNotModified)
	notModified.Inc()
}

// acceptsGzip reports whether the request's Accept-Encoding explicitly
// lists gzip (or its x-gzip alias) with a nonzero q-value, per RFC 9110
// §12.5.3. The absence of the header, a wildcard, and malformed members
// all answer false: identity is always an acceptable default, so the
// conservative reading never produces an unreadable response.
func acceptsGzip(r *http.Request) bool {
	for _, member := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(member, ";")
		coding = strings.ToLower(strings.TrimSpace(coding))
		if coding != "gzip" && coding != "x-gzip" {
			continue
		}
		params = strings.TrimSpace(params)
		if q, ok := strings.CutPrefix(params, "q="); ok {
			if f, err := strconv.ParseFloat(strings.TrimSpace(q), 64); err != nil || f <= 0 {
				return false
			}
		}
		return true
	}
	return false
}

// gzipMemo returns body gzip-compressed, computing (and memoizing) the
// encoded form once per snapshot under "gzip:"+key. compress/gzip with a
// zero-valued header is deterministic for a given input, so repeated
// requests — and separate servers publishing identical snapshots — serve
// byte-identical gzip entities, preserving the fingerprint⇒bytes
// invariant the strong ETag relies on.
func gzipMemo(sn *Snapshot, key string, body []byte) []byte {
	return sn.Memo("gzip:"+key, func() interface{} {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		_, _ = zw.Write(body)
		_ = zw.Close()
		return buf.Bytes()
	}).([]byte)
}

// WriteSnapshotRaw writes a payload already encoded (and memoized) on the
// snapshot as the snapshot's representation: the snapshot fingerprint
// becomes the ETag, its publish time Last-Modified, and a request whose
// If-None-Match / If-Modified-Since validators still hold is answered 304
// with no body. Aggregation endpoints serve their bytes with zero
// per-request encoding work; the profile routes go through
// WriteProfileList and WriteProfile under the same validators, which is
// what makes "same snapshot ⇒ same ETag ⇒ byte-identical body" a
// route-table-wide invariant. key names the payload on the snapshot's
// memo space; a request accepting gzip is answered with the gzip entity,
// compressed once per snapshot and memoized under "gzip:"+key. Both
// encodings share the snapshot's validators — the ETag identifies the
// snapshot content and Vary: Accept-Encoding keys caches per coding — so
// conditional requests short-circuit to 304 identically either way.
func WriteSnapshotRaw(w http.ResponseWriter, r *http.Request, sn *Snapshot, key string, body []byte) {
	// Vary must accompany every response on this resource, 304s included,
	// so caches key the stored representation by requested coding.
	w.Header().Add("Vary", "Accept-Encoding")
	if checkConditional(w, r, sn.ETag(), sn.PublishedAt()) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if acceptsGzip(r) {
		gz := gzipMemo(sn, key, body)
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Set("Content-Length", strconv.Itoa(len(gz)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(gz)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// WriteContentJSON writes v under a content-derived ETag (no modification
// time) — the validator form for payloads that are not snapshot-backed but
// still stable, like /api/v1/version and the route index.
func WriteContentJSON(w http.ResponseWriter, r *http.Request, etag string, v interface{}) {
	if checkConditional(w, r, etag, time.Time{}) {
		return
	}
	WriteJSON(w, http.StatusOK, v)
}
