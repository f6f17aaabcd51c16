package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"cloudlens"
)

// discardWriter is a ResponseWriter that keeps nothing, so the counts below
// are the handler's own allocations.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestLivePageAllocsFlat replays a small and a five times larger week and
// pins that serving /api/v1/live/profiles?limit=25 from the finished
// snapshot allocates no more over the large one: the route neither copies
// the profile set nor grows a buffer with it. Stray allocations by other
// goroutines get half an allocation per request of slack, and byte counts
// 1 KiB for a pooled buffer a collection may drop.
func TestLivePageAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("full-week replays; skipped in -short mode")
	}
	measure := func(scale float64) (profiles int, allocs, bytes float64) {
		cfg := cloudlens.DefaultConfig(42)
		cfg.Scale = scale
		tr, err := cloudlens.Generate(cfg)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{})
		pipe.Start(context.Background())
		if err := pipe.Wait(); err != nil {
			t.Fatalf("replay: %v", err)
		}
		h := buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil)
		req := httptest.NewRequest(http.MethodGet, "/api/v1/live/profiles?limit=25", nil)
		w := &discardWriter{}
		serve := func() {
			w.h = http.Header{}
			h.ServeHTTP(w, req)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		serve() // build the snapshot and warm the buffer pool
		const runs = 200
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&b)
		return readSrc.Live().KB().Len(), float64(b.Mallocs-a.Mallocs) / runs, float64(b.TotalAlloc-a.TotalAlloc) / runs
	}
	nSmall, smallAllocs, smallBytes := measure(0.02)
	nLarge, largeAllocs, largeBytes := measure(0.1)
	if nLarge < 4*nSmall {
		t.Fatalf("replays published %d and %d profiles; want the second at least 4x the first", nSmall, nLarge)
	}
	if largeAllocs > smallAllocs+0.5 || largeBytes > smallBytes+1024 {
		t.Errorf("a 25-profile page allocates %.1f times, %.0f B over %d profiles; %.1f times, %.0f B over %d",
			largeAllocs, largeBytes, nLarge, smallAllocs, smallBytes, nSmall)
	}
}
