package stream

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/workload"
)

func listAll(store *kb.Store) []*kb.Profile {
	return store.List(kb.Query{MinRegionAgnosticScore: -2})
}

// TestKillResumeExactMini pins the strongest checkpoint property on the
// hand-built trace: kill at any step, resume, and the end-of-week knowledge
// base is deeply equal to the uninterrupted run's — not merely within
// tolerance.
func TestKillResumeExactMini(t *testing.T) {
	tr := miniTrace(t)
	opts := Options{FoldEverySteps: 12}

	ref := NewPipeline(tr, opts)
	ref.Start(context.Background())
	if err := ref.Wait(); err != nil {
		t.Fatalf("reference pipeline: %v", err)
	}
	want := listAll(ref.KB())

	for _, stop := range []int{0, 1, 287, 1007, 2014, 2015, 2016} {
		buf := killEngineAt(t, tr, opts, stop)

		ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
		if err != nil {
			t.Fatalf("stop %d: read checkpoint: %v", stop, err)
		}
		if ck.LastStep != stop {
			t.Fatalf("stop %d: checkpoint records step %d", stop, ck.LastStep)
		}
		resumed, err := NewResumedPipeline(tr, opts, ck)
		if err != nil {
			t.Fatalf("stop %d: resume: %v", stop, err)
		}
		resumed.Start(context.Background())
		if err := resumed.Wait(); err != nil {
			t.Fatalf("stop %d: resumed pipeline: %v", stop, err)
		}

		got := listAll(resumed.KB())
		if len(got) != len(want) {
			t.Fatalf("stop %d: resumed kb has %d profiles, want %d", stop, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(*got[i], *want[i]) {
				t.Errorf("stop %d: profile %s diverged:\nresumed: %+v\nuninterrupted: %+v",
					stop, want[i].Subscription, *got[i], *want[i])
			}
		}
		// Streaming-only state converges too: quantile sketches and
		// counters restored exactly.
		resumedLive, refLive := liveOf(resumed), liveOf(ref)
		for _, sub := range []core.SubscriptionID{"multi", "solo"} {
			rp, ok1 := resumedLive.Profile(sub)
			wp, ok2 := refLive.Profile(sub)
			if !ok1 || !ok2 {
				t.Fatalf("stop %d: live profile %s missing (resumed=%v ref=%v)", stop, sub, ok1, ok2)
			}
			if rp.UtilP50 != wp.UtilP50 || rp.UtilP95 != wp.UtilP95 ||
				rp.Samples != wp.Samples || rp.QualifiedVMs != wp.QualifiedVMs {
				t.Errorf("stop %d: live profile %s diverged: %+v vs %+v", stop, sub, rp, wp)
			}
		}
		if fs := resumed.FaultStats(); fs != (FaultStats{}) {
			t.Errorf("stop %d: clean resume recorded faults: %+v", stop, fs)
		}
	}
}

// TestKillResumeGoldenGenerated is the acceptance golden: a generated
// quarter-scale week killed at an arbitrary mid-week step and resumed must
// land within the batch-equivalence bars of the uninterrupted run —
// dominant-pattern agreement >= 95% and utilization quantiles within one
// percentage point. (In practice the restore is exact; the bars are the
// contract.)
func TestKillResumeGoldenGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("full-week replay; skipped in -short mode")
	}
	cfg := workload.DefaultConfig(42)
	cfg.Scale = 0.25
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	opts := Options{}

	ref := NewPipeline(tr, opts)
	ref.Start(context.Background())
	if err := ref.Wait(); err != nil {
		t.Fatalf("reference pipeline: %v", err)
	}

	// An arbitrary mid-week step, derived from the trace seed so the run
	// is reproducible without being hand-picked.
	stop := 211 + int(cfg.Seed%7)*229
	buf := killEngineAt(t, tr, opts, stop)
	t.Logf("killed at step %d, checkpoint %d bytes", stop, buf.Len())

	ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	resumed, err := NewResumedPipeline(tr, opts, ck)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	resumed.Start(context.Background())
	if err := resumed.Wait(); err != nil {
		t.Fatalf("resumed pipeline: %v", err)
	}

	want := listAll(ref.KB())
	got := listAll(resumed.KB())
	if len(got) != len(want) {
		t.Fatalf("resumed kb has %d profiles, want %d", len(got), len(want))
	}
	total, agree := 0, 0
	for i, wp := range want {
		gp := got[i]
		if gp.Subscription != wp.Subscription {
			t.Fatalf("profile %d: subscription %s vs %s", i, gp.Subscription, wp.Subscription)
		}
		if wp.DominantPattern == core.PatternUnknown {
			continue
		}
		total++
		if gp.DominantPattern == wp.DominantPattern {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("no classified subscriptions")
	}
	frac := float64(agree) / float64(total)
	t.Logf("dominant-pattern agreement after resume: %d/%d = %.4f", agree, total, frac)
	if frac < goldenMinAgreement {
		t.Errorf("pattern agreement %.4f below %v", frac, goldenMinAgreement)
	}

	refSum, resSum := liveOf(ref).Summary(), liveOf(resumed).Summary()
	for _, cloud := range core.Clouds() {
		rc, gc := refSum.Clouds[cloud.String()], resSum.Clouds[cloud.String()]
		if d := math.Abs(gc.UtilP50 - rc.UtilP50); d > goldenQuantileTolerance {
			t.Errorf("%v P50 after resume: %.4f vs %.4f (Δ=%.4f)", cloud, gc.UtilP50, rc.UtilP50, d)
		}
		if d := math.Abs(gc.UtilP95 - rc.UtilP95); d > goldenQuantileTolerance {
			t.Errorf("%v P95 after resume: %.4f vs %.4f (Δ=%.4f)", cloud, gc.UtilP95, rc.UtilP95, d)
		}
		if gc.SamplesIngested != rc.SamplesIngested || gc.VMsSeen != rc.VMsSeen {
			t.Errorf("%v counters after resume: (%d, %d) vs (%d, %d)",
				cloud, gc.SamplesIngested, gc.VMsSeen, rc.SamplesIngested, rc.VMsSeen)
		}
	}
}

// TestCheckpointRejectsMismatch covers the refusal paths: wrong trace,
// wrong version, truncated stream.
func TestCheckpointRejectsMismatch(t *testing.T) {
	tr := miniTrace(t)
	eng := NewEngine(tr, Options{})
	eng.ObserveBatch(batchOf(0, sampleAt(0, 0, 0.5)))
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}

	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr); err != nil {
		t.Fatalf("self round-trip failed: %v", err)
	}

	other := microTrace()
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("checkpoint accepted a different trace")
	}

	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()[:40]), tr); err == nil {
		t.Error("truncated checkpoint accepted")
	}

	if _, err := ReadCheckpoint(bytes.NewReader([]byte("not a checkpoint at all")), tr); err == nil {
		t.Error("garbage accepted")
	}
}
