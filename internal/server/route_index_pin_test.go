package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cloudlens/internal/kb"
	"cloudlens/internal/policy"
	"cloudlens/internal/server/servertest"
	"cloudlens/internal/stream"
)

// routeIndexGolden holds one line per server mode: the mode, the ETag and
// the exact body of GET /api/v1/.
const routeIndexGolden = "testdata/route_index.txt"

// TestRouteIndexPinned pins the route index byte for byte on a batch
// server, a live (replaying) server and a policy-enabled batch server. The
// index documents every mounted route, so any route added, dropped,
// re-worded or re-classed shows here.
func TestRouteIndexPinned(t *testing.T) {
	tr := servertest.Trace()
	store := kb.Extract(tr, kb.ExtractOptions{})

	pipe, readSrc := servertest.Live(tr, stream.Options{})
	pipe.Start(context.Background())
	if err := pipe.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}

	pols, err := policy.ParseSpec("oversub,spot,balance")
	if err != nil {
		t.Fatal(err)
	}
	src := store.Stamped(time.Now())
	peng, err := policy.NewEngine(src, pols, policy.Options{TraceLevel: 1, CounterfactualK: 3})
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	for _, c := range []struct {
		mode string
		h    http.Handler
	}{
		{"batch", New(store.Stamped(time.Now()), nil, nil, nil, nil)},
		{"live", New(readSrc, pipe, nil, nil, nil)},
		{"policy", New(src, nil, nil, peng, nil)},
	} {
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: GET /api/v1/ = %d", c.mode, rec.Code)
		}
		lines = append(lines, fmt.Sprintf("%s %s %s", c.mode, rec.Header().Get("ETag"), strings.TrimSuffix(rec.Body.String(), "\n")))
	}

	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(routeIndexGolden)
	if err != nil {
		t.Fatalf("%v; the indexes were:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("route index differs from %s\ngot:\n%swant:\n%s", routeIndexGolden, got, want)
	}
}
