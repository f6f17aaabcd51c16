package stream

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"cloudlens/internal/kb"
)

// fingerprintRecorder is a FoldObserver that records the published
// knowledge base's fingerprint, labelled with the fold step, at every fold.
type fingerprintRecorder struct {
	eng Engine
	fps []string
}

func (r *fingerprintRecorder) FoldBegin() {}

func (r *fingerprintRecorder) FoldPublished(step int) {
	r.fps = append(r.fps, fmt.Sprintf("step %d %s", step, kb.NewSnapshot(r.eng.KB(), step, 0).Fingerprint()))
}

// TestParallelFoldMatchesSerial replays the quarter-scale CPU week with the
// fold on one core and on four, through one ingestor and through two
// shards, and requires the same knowledge base at every fold of a shard
// count — and the same final one across shard counts: the parallel
// fold hands subscriptions out in blocks to whichever worker is free, so
// any result that depended on the schedule would show here.
func TestParallelFoldMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-week replays; skipped in -short mode")
	}
	tr := quarterWeek(t, 42)
	replay := func(procs, shards int) []string {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		r := &fingerprintRecorder{}
		p := NewPipeline(tr, Options{Shards: shards, FoldObserver: r})
		r.eng = p.Engine()
		p.Start(context.Background())
		if err := p.Wait(); err != nil {
			t.Fatalf("GOMAXPROCS=%d shards=%d: pipeline: %v", procs, shards, err)
		}
		return r.fps
	}
	var finals []string
	for _, shards := range []int{1, 2} {
		want := replay(1, shards)
		if len(want) == 0 {
			t.Fatalf("shards=%d: the serial replay published no folds", shards)
		}
		got := replay(4, shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d folds at GOMAXPROCS=4, %d at 1", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: fold %d published %s at GOMAXPROCS=4, %s at 1", shards, i, got[i], want[i])
			}
		}
		finals = append(finals, want[len(want)-1])
		t.Logf("shards=%d: %d folds fingerprint-equal at GOMAXPROCS 1 and 4", shards, len(want))
	}
	if finals[0] != finals[1] {
		t.Fatalf("final fold %s with one shard, %s with two", finals[0], finals[1])
	}
}
