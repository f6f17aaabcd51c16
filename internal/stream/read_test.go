package stream

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

// feedSteps replays the micro trace's first n steps into the engine by
// hand, one batch per step.
func feedSteps(eng Engine, n int) {
	for s := 0; s < n; s++ {
		eng.ObserveBatch(batchOf(s, sampleAt(0, s, 0.5)))
	}
}

func TestReadSourceSnapshotLifecycle(t *testing.T) {
	clockAt := time.Unix(1700000000, 0)
	rs := NewReadSource(func() time.Time { return clockAt })
	eng := NewEngine(microTrace(), Options{FoldEverySteps: 2, FoldObserver: rs})
	rs.Bind(eng)

	// Before any fold: a valid (empty) snapshot, cached across calls.
	ls0 := rs.Live()
	if ls0 == nil || ls0.KB() == nil {
		t.Fatal("nil snapshot before first fold")
	}
	if rs.Live() != ls0 {
		t.Error("pre-fold snapshot not cached")
	}

	// Feeding past a fold boundary publishes: the next read rebuilds.
	feedSteps(eng, 6)
	ls1 := rs.Live()
	if ls1 == ls0 {
		t.Fatal("fold publication not observed by Live")
	}
	if rs.Live() != ls1 || rs.Live() != ls1 {
		t.Error("snapshot rebuilt between folds")
	}
	if ls1.KB().PublishedAt() != clockAt {
		t.Errorf("publish time = %v, want the injected clock", ls1.KB().PublishedAt())
	}
	if ls1.Summary().Done {
		t.Error("mid-replay snapshot reports done")
	}

	// Finish flips Done after the final fold; a lone reader sees it on the
	// very next call — the done-flip rebuild.
	eng.Finish()
	ls2 := rs.Live()
	if ls2 == ls1 {
		t.Fatal("finish not observed by Live")
	}
	if !ls2.Summary().Done {
		t.Error("post-finish snapshot not done")
	}
	if rs.Live() != ls2 {
		t.Error("final snapshot not cached")
	}

	// Payloads are pre-encoded once per snapshot, with the trailing
	// newline matching kb.WriteJSON's framing.
	for name, b := range map[string][]byte{
		"summary": ls2.SummaryJSON(), "percentiles": ls2.PercentilesJSON(), "regions": ls2.RegionsJSON(),
	} {
		if len(b) == 0 || b[len(b)-1] != '\n' {
			t.Errorf("%s payload malformed: %q", name, b)
		}
	}
}

func TestReadSourceConcurrentReadersDuringFolds(t *testing.T) {
	rs := NewReadSource(nil)
	eng := NewEngine(microTrace(), Options{FoldEverySteps: 1, FoldObserver: rs})
	rs.Bind(eng)

	done := make(chan struct{})
	go func() {
		defer close(done)
		feedSteps(eng, 400)
		eng.Finish()
	}()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ls := rs.Live()
				// Each served snapshot must be internally consistent: the
				// profile list, its live augmentation, and the lookup index
				// were captured in one pass.
				if got, want := ls.Len(), ls.KB().Len(); got != want || len(ls.ends) != want {
					t.Errorf("live profiles %d != kb profiles %d", got, want)
					return
				}
				if ls.KB().ETag() != ls.KB().ETag() {
					t.Error("ETag unstable")
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()

	if !rs.Live().Summary().Done {
		t.Error("final snapshot not done")
	}
}

// TestReadSourceShardInvariance pins that the snapshot read surface is
// bit-identical regardless of shard count: every pre-encoded payload and
// the snapshot fingerprint must match between a one-shard pipeline
// and a sharded one over the same trace.
func TestReadSourceShardInvariance(t *testing.T) {
	run := func(shards int) *LiveSnapshot {
		tr := miniTrace(t)
		rs := NewReadSource(nil)
		p := NewPipeline(tr, Options{Shards: shards, FoldObserver: rs})
		rs.Bind(p.Engine())
		p.Start(context.Background())
		if err := p.Wait(); err != nil {
			t.Fatalf("shards=%d replay: %v", shards, err)
		}
		return rs.Live()
	}

	single, sharded := run(1), run(3)
	if a, b := single.KB().Fingerprint(), sharded.KB().Fingerprint(); a != b {
		t.Errorf("fingerprints diverge across shard counts: %s vs %s", a, b)
	}
	for name, pair := range map[string][2][]byte{
		"summary":     {single.SummaryJSON(), sharded.SummaryJSON()},
		"percentiles": {single.PercentilesJSON(), sharded.PercentilesJSON()},
		"regions":     {single.RegionsJSON(), sharded.RegionsJSON()},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Errorf("%s payload diverges across shard counts:\n%s\nvs\n%s", name, pair[0], pair[1])
		}
	}
}

// TestReadSourceWithoutFoldObserver pins that a ReadSource needs no fold
// notifications: bound to an engine built without a FoldObserver, it
// serves a new snapshot after each fold, labelled with that fold's
// boundary and count, and a done one after Finish.
func TestReadSourceWithoutFoldObserver(t *testing.T) {
	tr := microTrace()
	rs := NewReadSource(nil)
	eng := NewEngine(tr, Options{FoldEverySteps: 2})
	rs.Bind(eng)

	prev := rs.Live()
	folds := 0
	for s := 0; s < 12; s++ {
		eng.ObserveBatch(batchOf(s, sampleAt(0, s, 0.5)))
		f := int(eng.Progress().Folds)
		ls := rs.Live()
		if f == folds {
			if ls != prev {
				t.Fatalf("step %d: snapshot rebuilt without a fold", s)
			}
			continue
		}
		folds = f
		if ls == prev {
			t.Fatalf("step %d: fold %d not observed by Live", s, f)
		}
		if got := ls.KB().Seq(); got != uint64(f) {
			t.Errorf("fold %d: snapshot seq %d", f, got)
		}
		if st := ls.KB().Step(); st <= prev.KB().Step() || st%2 != 0 {
			t.Errorf("fold %d: snapshot step %d after %d", f, st, prev.KB().Step())
		}
		prev = ls
	}
	if folds < 3 {
		t.Fatalf("only %d folds in 12 steps", folds)
	}

	eng.Finish()
	ls := rs.Live()
	if ls == prev || !ls.Summary().Done {
		t.Fatal("finish not observed by Live")
	}
	if ls.KB().Step() != tr.Grid.N {
		t.Errorf("final snapshot step %d, want %d", ls.KB().Step(), tr.Grid.N)
	}
	if rs.Live() != ls {
		t.Error("final snapshot not cached")
	}
}
