package stream

import (
	"context"
	"reflect"
	"testing"
	"unsafe"

	"cloudlens/internal/sketch"
	"cloudlens/internal/workload"
)

// TestRestoredSketchesShareLagSet pins how a restore rebuilds the
// autocorrelation sketches: in place in each accumulator, on the lag set
// the ingestor hands every fresh sketch (track), with no private lag copy
// and no throwaway sketch per VM. A restore then allocates per VM only the
// accumulator, its ring and its per-lag sums.
func TestRestoredSketchesShareLagSet(t *testing.T) {
	cfg := workload.DefaultConfig(42)
	cfg.Scale = 0.02
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	opts := Options{Shards: 2}
	eng := engineAt(t, tr, opts, tr.Grid.N/2).(*shardGroup)
	defer eng.Abort()
	ck := checkpointFrom(t, tr, eng)

	// The lag slice an accumulator's sketch tracks, by its data pointer.
	lagsOf := func(ac *sketch.AutoCorr) uintptr {
		return reflect.ValueOf(ac).Elem().FieldByName("lags").Pointer()
	}
	restored, err := restoreEngine(tr, opts, ck)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer restored.Abort()
	for i, pair := range [][2]*Ingestor{{eng.shards[0], restored.shards[0]}, {eng.shards[1], restored.shards[1]}} {
		for which, ing := range map[string]*Ingestor{"fresh": pair[0], "restored": pair[1]} {
			shared := uintptr(unsafe.Pointer(unsafe.SliceData(ing.lags)))
			n := 0
			for _, acc := range ing.accs {
				if acc == nil {
					continue
				}
				n++
				if lagsOf(&acc.ac) != shared {
					t.Fatalf("shard %d, %s: VM %d's sketch tracks a private lag slice, not the ingestor's", i, which, acc.idx)
				}
			}
			if n == 0 {
				t.Fatalf("shard %d, %s: no accumulators", i, which)
			}
		}
	}

	// Allocations per restored VM: the difference a shard's accumulators
	// make to restoring it, over their count.
	sc := ck.Shards[0]
	bare := *sc
	bare.Accs = nil
	met := shardMetrics(0)
	allocs := func(sc *ShardCheckpoint) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := restoreShard(tr, opts, sc, met); err != nil {
				t.Fatal(err)
			}
		})
	}
	perVM := (allocs(sc) - allocs(&bare)) / float64(len(sc.Accs))
	t.Logf("%d accumulators: %.2f allocations each", len(sc.Accs), perVM)
	// Three apiece — accumulator, ring, per-lag sums — plus the appends
	// that grow each subscription's qualified list, under one per VM (0.64
	// here). A private lag copy and a throwaway sketch would add two.
	if perVM >= 4 {
		t.Errorf("restoring a VM's accumulator allocates %.2f objects, want under 4 (accumulator, ring, sums, and a share of the qualified-list appends)", perVM)
	}
}

// TestRestoreLeavesCheckpointUntouched pins that a restore copies what the
// resumed engine will write: running a resumed pipeline to the end of the
// window leaves the Checkpoint it came from equal to a fresh decode of the
// same file. Hourly region sums used to be shared and summed into.
func TestRestoreLeavesCheckpointUntouched(t *testing.T) {
	tr := miniTrace(t)
	for _, shards := range []int{1, 2} {
		opts := Options{FoldEverySteps: 12, Shards: shards}
		eng := engineAt(t, tr, opts, 500)
		ck, want := checkpointFrom(t, tr, eng), checkpointFrom(t, tr, eng)
		eng.Abort()
		p, err := NewResumedPipeline(tr, opts, ck)
		if err != nil {
			t.Fatalf("shards=%d: resume: %v", shards, err)
		}
		p.Start(context.Background())
		if err := p.Wait(); err != nil {
			t.Fatalf("shards=%d: resumed pipeline: %v", shards, err)
		}
		if !reflect.DeepEqual(ck, want) {
			t.Errorf("shards=%d: the resumed run wrote into the Checkpoint it was restored from", shards)
		}
	}
}
