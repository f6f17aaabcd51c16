package kb_test

// The HTTP surface over an unstamped kb.Snapshot — what a library caller
// gets from cloudlens.KnowledgeBaseHandler — driven end to end: envelopes,
// paging, validators, gzip and the route index.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/server"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

var (
	kbOnce  sync.Once
	kbTrace *trace.Trace
	kbStore *kb.Snapshot
	kbErr   error
)

// sharedKB extracts one knowledge base for the whole test package.
func sharedKB(t *testing.T) (*trace.Trace, *kb.Snapshot) {
	t.Helper()
	kbOnce.Do(func() {
		cfg := workload.DefaultConfig(21)
		cfg.Scale = 0.5
		kbTrace, kbErr = workload.Generate(cfg)
		if kbErr == nil {
			kbStore = kb.Extract(kbTrace, kb.ExtractOptions{})
		}
	})
	if kbErr != nil {
		t.Fatalf("build shared kb: %v", kbErr)
	}
	return kbTrace, kbStore
}

func snapKB() *kb.Snapshot {
	return kb.SnapshotOf(0, 1,
		&kb.Profile{Subscription: "b", Cloud: core.Public, MeanUtilization: 0.4, RegionAgnosticScore: -1},
		&kb.Profile{Subscription: "a", Cloud: core.Private, MeanUtilization: 0.3, RegionAgnosticScore: 0.9},
		&kb.Profile{Subscription: "c", Cloud: core.Private, MeanUtilization: 0.5, RegionAgnosticScore: -1})
}

// swapSource serves the snapshot published last, as a live engine
// publishes one per fold.
type swapSource struct{ sn atomic.Pointer[kb.Snapshot] }

func (s *swapSource) Snapshot() *kb.Snapshot { return s.sn.Load() }

// publish makes the next snapshot: the current profiles plus p.
func (s *swapSource) publish(p *kb.Profile) {
	cur := s.sn.Load()
	s.sn.Store(kb.SnapshotOf(cur.Step(), cur.Seq()+1, append(slices.Clone(cur.Profiles()), p)...))
}

func newSwapSource(sn *kb.Snapshot) *swapSource {
	src := &swapSource{}
	src.sn.Store(sn)
	return src
}

func TestHTTPHealthz(t *testing.T) {
	_, store := sharedKB(t)
	srv := httptest.NewServer(server.New(store, nil, nil, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPSummary(t *testing.T) {
	_, store := sharedKB(t)
	srv := httptest.NewServer(server.New(store, nil, nil, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]kb.Summary
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out["private"].Subscriptions == 0 || out["public"].Subscriptions == 0 {
		t.Fatalf("summary payload incomplete: %+v", out)
	}
}

func TestHTTPProfiles(t *testing.T) {
	_, store := sharedKB(t)
	srv := httptest.NewServer(server.New(store, nil, nil, nil, nil))
	defer srv.Close()

	t.Run("list with filters", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/api/v1/profiles?cloud=private&minAgnostic=0.8")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var profiles []*kb.Profile
		if err := json.NewDecoder(resp.Body).Decode(&profiles); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(profiles) == 0 {
			t.Fatal("no region-agnostic private profiles over HTTP")
		}
		for _, p := range profiles {
			if p.Cloud != core.Private || p.RegionAgnosticScore < 0.8 {
				t.Fatalf("filter violated: %+v", p)
			}
		}
	})

	t.Run("single profile", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/api/v1/profiles/prv-sub-servicex")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var p kb.Profile
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if p.Subscription != "prv-sub-servicex" {
			t.Fatalf("wrong profile: %s", p.Subscription)
		}
	})

	t.Run("not found", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/api/v1/profiles/ghost")
		if err != nil {
			t.Fatal(err)
		}
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
		if env.Error.Code != "not_found" {
			t.Errorf("envelope code %q, want not_found", env.Error.Code)
		}
	})

	t.Run("bad parameter", func(t *testing.T) {
		for _, q := range []string{"cloud=mars", "minAgnostic=abc", "pattern=wavy", "minShortLived=x"} {
			resp, err := http.Get(srv.URL + "/api/v1/profiles?" + q)
			if err != nil {
				t.Fatal(err)
			}
			env := decodeEnvelope(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("query %q: status %d, want 400", q, resp.StatusCode)
			}
			if env.Error.Code != "bad_param" || env.Error.Message == "" {
				t.Errorf("query %q: envelope = %+v", q, env)
			}
		}
	})

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/api/v1/profiles", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
		if env.Error.Code != "method_not_allowed" {
			t.Errorf("envelope code %q, want method_not_allowed", env.Error.Code)
		}
		if resp.Header.Get("Allow") == "" {
			t.Error("405 lost the Allow header")
		}
	})

	t.Run("unknown path", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/api/v2/profiles")
		if err != nil {
			t.Fatal(err)
		}
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != "not_found" {
			t.Errorf("status %d envelope %+v, want enveloped 404", resp.StatusCode, env)
		}
	})
}

// decodeEnvelope reads an error response body as the uniform JSON envelope.
func decodeEnvelope(t *testing.T, resp *http.Response) kb.ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	var env kb.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v", err)
	}
	return env
}

func TestHTTPVersion(t *testing.T) {
	_, store := sharedKB(t)
	srv := httptest.NewServer(server.New(store, nil, nil, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version status %d", resp.StatusCode)
	}
	var v server.VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v.Module == "" || v.GoVersion == "" {
		t.Errorf("version payload incomplete: %+v", v)
	}
}

// TestHTTPProfilesPagination drives the paginated envelope end to end:
// a limit-bounded cursor walk over /api/v1/profiles must reassemble
// exactly the unpaginated listing, and the strict parameter grammar must
// reject what it does not know.
func TestHTTPProfilesPagination(t *testing.T) {
	_, store := sharedKB(t)
	srv := httptest.NewServer(server.New(store, nil, nil, nil, nil))
	defer srv.Close()

	var all []*kb.Profile
	resp, err := http.Get(srv.URL + "/api/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatalf("decode unpaginated: %v", err)
	}
	resp.Body.Close()
	if len(all) < 10 {
		t.Fatalf("shared kb too small for a pagination walk: %d profiles", len(all))
	}

	type pageResp struct {
		Items      []*kb.Profile `json:"items"`
		NextCursor string        `json:"next_cursor"`
		Total      int           `json:"total"`
	}
	var walked []*kb.Profile
	cursor := ""
	pages := 0
	for {
		u := srv.URL + "/api/v1/profiles?limit=7"
		if cursor != "" {
			u += "&cursor=" + cursor
		}
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: status %d", pages, resp.StatusCode)
		}
		var p pageResp
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatalf("page %d: decode: %v", pages, err)
		}
		resp.Body.Close()
		if p.Total != len(all) {
			t.Fatalf("page %d: total %d, want %d", pages, p.Total, len(all))
		}
		if len(p.Items) > 7 {
			t.Fatalf("page %d: %d items exceed the limit", pages, len(p.Items))
		}
		walked = append(walked, p.Items...)
		pages++
		if p.NextCursor == "" {
			break
		}
		cursor = p.NextCursor
	}
	if want := (len(all) + 6) / 7; pages != want {
		t.Errorf("walk took %d pages, want %d", pages, want)
	}
	if len(walked) != len(all) {
		t.Fatalf("walk collected %d profiles, want %d", len(walked), len(all))
	}
	for i := range all {
		if walked[i].Subscription != all[i].Subscription {
			t.Fatalf("page walk diverged at %d: %s vs %s", i, walked[i].Subscription, all[i].Subscription)
		}
		if i > 0 && walked[i].Subscription <= walked[i-1].Subscription {
			t.Fatalf("page walk not strictly increasing at %d: %s after %s",
				i, walked[i].Subscription, walked[i-1].Subscription)
		}
	}

	// Filters compose with paging inside one envelope.
	resp, err = http.Get(srv.URL + "/api/v1/profiles?cloud=private&limit=3")
	if err != nil {
		t.Fatal(err)
	}
	var filtered pageResp
	if err := json.NewDecoder(resp.Body).Decode(&filtered); err != nil {
		t.Fatalf("decode filtered page: %v", err)
	}
	resp.Body.Close()
	for _, p := range filtered.Items {
		if p.Cloud.String() != "private" {
			t.Fatalf("filtered page leaked %s profile %s", p.Cloud, p.Subscription)
		}
	}

	for _, tc := range []struct {
		query, code string
	}{
		{"limit=0", "bad_param"},
		{"limit=" + strconv.Itoa(kb.MaxPageLimit+1), "bad_param"},
		{"limit=abc", "bad_param"},
		{"cursor=garbage!", "bad_cursor"},
		{"limit=5&nope=1", "unknown_param"},
		{"Cloud=private", "unknown_param"}, // parameter names are case-sensitive
	} {
		resp, err := http.Get(srv.URL + "/api/v1/profiles?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != tc.code {
			t.Errorf("query %q: status %d code %q, want 400 %s", tc.query, resp.StatusCode, env.Error.Code, tc.code)
		}
	}
}

// TestHTTPRouteIndex pins the discovery contract: GET /api/v1/ lists
// every mounted route with its parameter grammar, and stays an exact
// match (deeper unknown paths remain enveloped 404s).
func TestHTTPRouteIndex(t *testing.T) {
	_, store := sharedKB(t)
	srv := httptest.NewServer(server.New(store, nil, nil, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	var idx server.RouteIndex
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatalf("decode index: %v", err)
	}

	byPattern := map[string]server.RouteInfo{}
	for _, ri := range idx.Routes {
		if ri.Method == "" || ri.Pattern == "" || ri.Doc == "" {
			t.Errorf("incomplete route row: %+v", ri)
		}
		byPattern[ri.Pattern] = ri
	}
	for _, want := range []string{"/healthz", "/api/v1/", "/api/v1/version", "/api/v1/summary",
		"/api/v1/profiles", "/api/v1/profiles/{id}"} {
		if _, ok := byPattern[want]; !ok {
			t.Errorf("route index missing %s (have %v)", want, keysOf(byPattern))
		}
	}
	profiles := byPattern["/api/v1/profiles"]
	params := map[string]bool{}
	for _, p := range profiles.Params {
		params[p.Name] = true
	}
	for _, want := range []string{"cloud", "minAgnostic", "pattern", "minShortLived", "limit", "cursor"} {
		if !params[want] {
			t.Errorf("profiles route does not document parameter %s", want)
		}
	}

	// {$} keeps the index an exact match.
	resp404, err := http.Get(srv.URL + "/api/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	env := decodeEnvelope(t, resp404)
	if resp404.StatusCode != http.StatusNotFound || env.Error.Code != "not_found" {
		t.Errorf("/api/v1/nope: status %d envelope %+v", resp404.StatusCode, env)
	}
}

func keysOf(m map[string]server.RouteInfo) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestHandlerConditionalRequests drives the full v1 surface through
// NewHandler: repeated GETs against one snapshot must be byte-identical
// under one ETag, conditional GETs must collapse to 304, and a write must
// flip the validator.
func TestHandlerConditionalRequests(t *testing.T) {
	src := newSwapSource(snapKB())
	srv := httptest.NewServer(server.New(src, nil, nil, nil, nil))
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

	// A new snapshot invalidates: the old validator stops matching and the
	// new representation differs.
	_, oldTag, oldBody := get("/api/v1/summary", "")
	src.publish(&kb.Profile{Subscription: "z", Cloud: core.Public, MeanUtilization: 0.9, RegionAgnosticScore: -1})
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

// TestGzipContentNegotiation pins the pre-encoded read contract of
// WriteSnapshotRaw on /api/v1/summary: a request accepting gzip receives a
// gzip entity that is byte-identical across repeats (one compression per
// snapshot, memoized), decompresses to exactly the identity body, shares
// the identity representation's ETag, and collapses to 304 under the same
// validator. Vary: Accept-Encoding accompanies every response, 304s
// included.
func TestGzipContentNegotiation(t *testing.T) {
	src := newSwapSource(snapKB())
	srv := httptest.NewServer(server.New(src, nil, nil, nil, nil))
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

	// A new snapshot flips the validator, and the new gzip entity differs.
	src.publish(&kb.Profile{Subscription: "z", Cloud: core.Public, MeanUtilization: 0.9, RegionAgnosticScore: -1})
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
	srv := httptest.NewServer(server.New(snapKB(), nil, nil, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var idx server.RouteIndex
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatalf("index decode: %v", err)
	}
	want := map[string]string{
		"/healthz":              server.CacheNone,
		"/api/v1/":              server.CacheContent,
		"/api/v1/version":       server.CacheContent,
		"/api/v1/summary":       server.CacheSnapshot,
		"/api/v1/profiles":      server.CacheSnapshot,
		"/api/v1/profiles/{id}": server.CacheSnapshot,
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
