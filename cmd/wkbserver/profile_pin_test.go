package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudlens"
)

// profileRoutesGolden holds one line per profile-route case: the path, the
// status, Content-Type, ETag, whether Vary was set, and the sha256 of the
// body.
const profileRoutesGolden = "testdata/profile_routes.txt"

// pinTrace generates the CPU week at a scale small enough to replay in a
// few seconds yet carrying well over 50 subscriptions, so the pages below
// span several cursors.
func pinTrace(t *testing.T) *cloudlens.Trace {
	t.Helper()
	cfg := cloudlens.DefaultConfig(42)
	cfg.Scale = 0.05
	tr, err := cloudlens.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return tr
}

// TestProfileRoutesPinned replays a generated week, then pins the exact
// response — status, Content-Type, ETag, Vary and body bytes — of every
// profile route: the live list (bare, paged, the next page by cursor,
// filtered, matching nothing), single live profiles including a 404, and
// the batch list and single-profile routes of the same server and of a
// batch-mode server over the extracted knowledge base.
func TestProfileRoutesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-week replay; skipped in -short mode")
	}
	tr := pinTrace(t)
	pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{})
	pipe.Start(context.Background())
	if err := pipe.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	live := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil))
	defer live.Close()
	batch := httptest.NewServer(buildHandler(cloudlens.ExtractKnowledgeBase(tr), nil, nil, nil, nil, nil))
	defer batch.Close()

	var all []cloudlens.LiveProfile
	if err := json.Unmarshal(wantStatus(t, live, "/api/v1/live/profiles", 200), &all); err != nil {
		t.Fatalf("decode live list: %v", err)
	}
	if len(all) < 50 {
		t.Fatalf("replay published %d profiles, want at least 50", len(all))
	}
	var first struct {
		NextCursor string `json:"next_cursor"`
	}
	if err := json.Unmarshal(wantStatus(t, live, "/api/v1/live/profiles?limit=25", 200), &first); err != nil || first.NextCursor == "" {
		t.Fatalf("first page has no next_cursor (err %v)", err)
	}
	next := "?limit=25&cursor=" + url.QueryEscape(first.NextCursor)
	firstID, lastID := string(all[0].Subscription), string(all[len(all)-1].Subscription)

	var lines []string
	pin := func(name string, srv *httptest.Server, path string) {
		resp, body := get(t, srv, path)
		sum := sha256.Sum256(body)
		lines = append(lines, fmt.Sprintf("%s %s status=%d type=%s etag=%s vary=%t body=%s",
			name, path, resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("ETag"),
			resp.Header.Get("Vary") != "", hex.EncodeToString(sum[:])))
	}
	for _, prefix := range []string{"/api/v1/live/profiles", "/api/v1/profiles"} {
		for _, q := range []string{"", "?limit=25", next, "?cloud=public&limit=7", "?cloud=private", "?minAgnostic=2", "?minAgnostic=2&limit=5"} {
			pin("live", live, prefix+q)
		}
		for _, id := range []string{firstID, lastID, "no-such-sub"} {
			pin("live", live, prefix+"/"+id)
		}
	}
	for _, path := range []string{"/api/v1/profiles", "/api/v1/profiles?limit=25", "/api/v1/profiles?cloud=public&limit=7", "/api/v1/profiles/" + firstID, "/api/v1/profiles/no-such-sub"} {
		pin("batch", batch, path)
	}

	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(filepath.FromSlash(profileRoutesGolden))
	if err != nil {
		t.Fatalf("%v; the responses were:\n%s", err, got)
	}
	if got != string(want) {
		wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		for i, line := range lines {
			if i >= len(wantLines) || line != wantLines[i] {
				w := "<missing>"
				if i < len(wantLines) {
					w = wantLines[i]
				}
				t.Errorf("case %d:\n got %s\nwant %s", i, line, w)
			}
		}
		if len(wantLines) != len(lines) {
			t.Errorf("%d cases, golden has %d", len(lines), len(wantLines))
		}
	}
}
