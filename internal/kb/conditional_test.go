package kb

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
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
