package kb

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"cloudlens/internal/core"
)

func TestETagMatches(t *testing.T) {
	cases := []struct {
		header, etag string
		want         bool
	}{
		{`"abc"`, `"abc"`, true},
		{`"abc"`, `"def"`, false},
		{`W/"abc"`, `"abc"`, true}, // weak on the request side
		{`"abc"`, `W/"abc"`, true}, // weak on the response side
		{`"x", "abc"`, `"abc"`, true},
		{`"x" , W/"abc"`, `"abc"`, true},
		{`*`, `"anything"`, true},
		{`"x", "y"`, `"abc"`, false},
	}
	for _, c := range cases {
		if got := etagMatches(c.header, c.etag); got != c.want {
			t.Errorf("etagMatches(%q, %q) = %v, want %v", c.header, c.etag, got, c.want)
		}
	}
}

func TestCheckConditional(t *testing.T) {
	etag := `"fnv1a:0123456789abcdef"`
	modified := time.Date(2023, 6, 1, 12, 0, 0, 345e6, time.UTC) // sub-second publish time

	do := func(method, inm, ims string) (*httptest.ResponseRecorder, bool) {
		r := httptest.NewRequest(method, "/x", nil)
		if inm != "" {
			r.Header.Set("If-None-Match", inm)
		}
		if ims != "" {
			r.Header.Set("If-Modified-Since", ims)
		}
		w := httptest.NewRecorder()
		return w, checkConditional(w, r, etag, modified)
	}

	// Unconditional GET: validators attached, body expected.
	w, hit := do(http.MethodGet, "", "")
	if hit {
		t.Error("unconditional GET answered 304")
	}
	if w.Header().Get("ETag") != etag {
		t.Errorf("ETag = %q", w.Header().Get("ETag"))
	}
	if lm := w.Header().Get("Last-Modified"); lm != modified.UTC().Format(http.TimeFormat) {
		t.Errorf("Last-Modified = %q", lm)
	}

	// Matching If-None-Match: 304, validators still attached.
	w, hit = do(http.MethodGet, etag, "")
	if !hit || w.Code != http.StatusNotModified {
		t.Errorf("matching INM: hit=%v code=%d", hit, w.Code)
	}
	if w.Header().Get("ETag") != etag {
		t.Error("304 lost its ETag")
	}

	// If-None-Match present and failing decides alone: a current
	// If-Modified-Since must not rescue the 304 (RFC 9110 precedence).
	_, hit = do(http.MethodGet, `"stale"`, modified.UTC().Format(http.TimeFormat))
	if hit {
		t.Error("failed INM fell through to IMS")
	}

	// If-Modified-Since at the (second-truncated) publish time: 304 even
	// though the snapshot's publish time has sub-second precision.
	_, hit = do(http.MethodGet, "", modified.UTC().Format(http.TimeFormat))
	if !hit {
		t.Error("IMS at publish time not honoured")
	}

	// Older If-Modified-Since: full response.
	_, hit = do(http.MethodGet, "", modified.Add(-time.Hour).UTC().Format(http.TimeFormat))
	if hit {
		t.Error("stale IMS answered 304")
	}

	// Conditionals only apply to GET/HEAD.
	_, hit = do(http.MethodPost, etag, "")
	if hit {
		t.Error("POST answered 304")
	}
}

// TestHandlerConditionalRequests drives the full v1 surface through
// NewHandler: repeated GETs against one snapshot must be byte-identical
// under one ETag, conditional GETs must collapse to 304, and a write must
// flip the validator.
func TestHandlerConditionalRequests(t *testing.T) {
	store := snapStore()
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()

	get := func(path, inm string) (int, string, []byte) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("ETag"), body
	}

	for _, path := range []string{"/api/v1/summary", "/api/v1/profiles", "/api/v1/profiles/a"} {
		code1, etag1, body1 := get(path, "")
		code2, etag2, body2 := get(path, "")
		if code1 != http.StatusOK || code2 != http.StatusOK {
			t.Fatalf("%s: codes %d, %d", path, code1, code2)
		}
		if etag1 == "" || etag1 != etag2 {
			t.Errorf("%s: unstable ETag %q vs %q", path, etag1, etag2)
		}
		if !bytes.Equal(body1, body2) {
			t.Errorf("%s: repeated GET bodies differ", path)
		}

		code3, _, body3 := get(path, etag1)
		if code3 != http.StatusNotModified {
			t.Errorf("%s: conditional GET = %d, want 304", path, code3)
		}
		if len(body3) != 0 {
			t.Errorf("%s: 304 carried a body (%d bytes)", path, len(body3))
		}
	}

	// All snapshot-backed routes share one validator: the same snapshot
	// serves them all.
	_, sumTag, _ := get("/api/v1/summary", "")
	_, profTag, _ := get("/api/v1/profiles", "")
	if sumTag != profTag {
		t.Errorf("summary and profiles disagree on the snapshot: %q vs %q", sumTag, profTag)
	}

	// A write invalidates: the old validator stops matching and the new
	// representation differs.
	_, oldTag, oldBody := get("/api/v1/summary", "")
	store.Put(&Profile{Subscription: "z", Cloud: core.Public, MeanUtilization: 0.9, RegionAgnosticScore: -1})
	code, newTag, newBody := get("/api/v1/summary", oldTag)
	if code != http.StatusOK {
		t.Fatalf("post-write conditional GET = %d, want 200", code)
	}
	if newTag == oldTag {
		t.Error("ETag unchanged across a write")
	}
	if bytes.Equal(oldBody, newBody) {
		t.Error("summary unchanged across a write")
	}

	// Version and the route index are content-cached: stable ETags, 304 on
	// replay, no Last-Modified (nothing publishes them).
	for _, path := range []string{"/api/v1/version", "/api/v1/"} {
		_, tag, _ := get(path, "")
		if tag == "" {
			t.Errorf("%s: no ETag", path)
			continue
		}
		if code, _, _ := get(path, tag); code != http.StatusNotModified {
			t.Errorf("%s: conditional GET = %d, want 304", path, code)
		}
	}
}

func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", false}, // absent: identity default
		{"gzip", true},
		{"x-gzip", true}, // historical alias, RFC 9110 §8.4.1.3
		{"GZIP", true},   // codings compare case-insensitively
		{" gzip ", true},
		{"br, gzip", true},
		{"gzip;q=1.0", true},
		{"gzip;q=0.5", true},
		{"gzip;q=0", false}, // explicitly refused
		{"gzip;q=0.000", false},
		{"gzip;q=banana", false}, // malformed q: stay conservative
		{"*", false},             // wildcard: identity is always acceptable
		{"br", false},
		{"identity", false},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, "/x", nil)
		if c.header != "" {
			r.Header.Set("Accept-Encoding", c.header)
		}
		if got := acceptsGzip(r); got != c.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestGzipContentNegotiation pins the pre-encoded read contract of
// WriteSnapshotRaw on /api/v1/summary: a request accepting gzip receives a
// gzip entity that is byte-identical across repeats (one compression per
// snapshot, memoized), decompresses to exactly the identity body, shares
// the identity representation's ETag, and collapses to 304 under the same
// validator. Vary: Accept-Encoding accompanies every response, 304s
// included.
func TestGzipContentNegotiation(t *testing.T) {
	store := snapStore()
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()

	get := func(acceptEncoding, inm string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/summary", nil)
		if acceptEncoding != "" {
			// An explicit Accept-Encoding disables the transport's
			// transparent decompression: the test sees the wire bytes.
			req.Header.Set("Accept-Encoding", acceptEncoding)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	respID, plain := get("identity", "")
	if respID.StatusCode != http.StatusOK || respID.Header.Get("Content-Encoding") != "" {
		t.Fatalf("identity GET: %d, Content-Encoding %q", respID.StatusCode, respID.Header.Get("Content-Encoding"))
	}
	if respID.Header.Get("Vary") != "Accept-Encoding" {
		t.Errorf("identity Vary = %q, want Accept-Encoding", respID.Header.Get("Vary"))
	}

	resp1, gz1 := get("gzip", "")
	_, gz2 := get("gzip", "")
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip GET: %d, Content-Encoding %q", resp1.StatusCode, resp1.Header.Get("Content-Encoding"))
	}
	if resp1.Header.Get("Vary") != "Accept-Encoding" {
		t.Errorf("gzip Vary = %q, want Accept-Encoding", resp1.Header.Get("Vary"))
	}
	if !bytes.Equal(gz1, gz2) {
		t.Error("repeated gzip GETs are not byte-identical")
	}
	if cl := resp1.Header.Get("Content-Length"); cl != strconv.Itoa(len(gz1)) {
		t.Errorf("gzip Content-Length = %q, body is %d bytes", cl, len(gz1))
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz1))
	if err != nil {
		t.Fatalf("gzip body does not decode: %v", err)
	}
	inflated, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gzip body truncated: %v", err)
	}
	if !bytes.Equal(inflated, plain) {
		t.Error("gzip entity does not decompress to the identity body")
	}

	// One snapshot, one validator: both codings carry the same strong ETag,
	// and it answers 304 for either encoding.
	etag := respID.Header.Get("ETag")
	if etag == "" || resp1.Header.Get("ETag") != etag {
		t.Fatalf("ETags differ across codings: %q vs %q", etag, resp1.Header.Get("ETag"))
	}
	for _, enc := range []string{"identity", "gzip"} {
		resp, body := get(enc, etag)
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("%s conditional GET = %d, want 304", enc, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Errorf("%s 304 carried a body", enc)
		}
		if resp.Header.Get("Vary") != "Accept-Encoding" {
			t.Errorf("%s 304 lost Vary", enc)
		}
	}

	// q=0 refuses gzip; the wildcard alone does not opt in.
	for _, refuse := range []string{"gzip;q=0", "*"} {
		if resp, _ := get(refuse, ""); resp.Header.Get("Content-Encoding") != "" {
			t.Errorf("Accept-Encoding %q got Content-Encoding %q, want identity",
				refuse, resp.Header.Get("Content-Encoding"))
		}
	}

	// A write flips the snapshot: the validator stops matching and the new
	// gzip entity differs.
	store.Put(&Profile{Subscription: "z", Cloud: core.Public, MeanUtilization: 0.9, RegionAgnosticScore: -1})
	resp3, gz3 := get("gzip", etag)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-write conditional gzip GET = %d, want 200", resp3.StatusCode)
	}
	if resp3.Header.Get("ETag") == etag {
		t.Error("ETag unchanged across a write")
	}
	if bytes.Equal(gz3, gz1) {
		t.Error("gzip entity unchanged across a write")
	}
}

// TestRouteIndexCacheMetadata pins each route's advertised cache class.
func TestRouteIndexCacheMetadata(t *testing.T) {
	srv := httptest.NewServer(NewHandler(snapStore()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var idx RouteIndex
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatalf("index decode: %v", err)
	}
	want := map[string]string{
		"/healthz":              CacheNone,
		"/api/v1/":              CacheContent,
		"/api/v1/version":       CacheContent,
		"/api/v1/summary":       CacheSnapshot,
		"/api/v1/profiles":      CacheSnapshot,
		"/api/v1/profiles/{id}": CacheSnapshot,
	}
	seen := map[string]bool{}
	for _, ri := range idx.Routes {
		if cls, ok := want[ri.Pattern]; ok {
			seen[ri.Pattern] = true
			if ri.Cache != cls {
				t.Errorf("%s: cache class %q, want %q", ri.Pattern, ri.Cache, cls)
			}
		}
	}
	for pattern := range want {
		if !seen[pattern] {
			t.Errorf("route index missing %s", pattern)
		}
	}
}
