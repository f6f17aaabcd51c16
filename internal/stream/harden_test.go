package stream

import (
	"math"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/sim"
	"cloudlens/internal/trace"
	"cloudlens/internal/usage"
)

// microTrace is the smallest universe the hardening tests need: one VM
// spanning the whole window and one deleted early, both in one
// subscription. Samples are hand-fed, so usage parameters are irrelevant.
func microTrace() *trace.Trace {
	g := sim.WeekGrid()
	mk := func(id, created, deleted int) trace.VM {
		return trace.VM{
			ID:           core.VMID(id),
			Subscription: "micro",
			Service:      "svc",
			Cloud:        core.Private,
			Region:       "r1",
			Size:         core.VMSize{Cores: 2, MemoryGB: 8},
			CreatedStep:  created,
			DeletedStep:  deleted,
			Usage:        usage.Stable(0.5, 1),
		}
	}
	return &trace.Trace{Grid: g, VMs: []trace.VM{mk(0, 0, g.N), mk(1, 0, 3)}}
}

func sampleAt(vm, step int, cpu float64) Sample {
	return Sample{VM: int32(vm), Step: int32(step), CPU: cpu}
}

// batchOf hand-feeds row-form samples through the Late rows: each sample
// carries its own step (on-time or delayed), keeping the exact float64
// readings these semantic tests assert on. The columnar fast path is
// covered by the replayer-driven tests and TestColumnarBatchPath.
func batchOf(step int, samples ...Sample) StepBatch {
	return StepBatch{Step: step, Late: samples}
}

// TestIngestorFaultLedger walks every quarantine and repair path through
// hand-built batches and checks the fault ledger entry by entry.
func TestIngestorFaultLedger(t *testing.T) {
	tr := microTrace()
	ing := newIngestor(tr, Options{MaxLatenessSteps: 2, FoldEverySteps: 10000}, shardMetrics(0))

	// Step 0: clean. Step 1: an exact duplicate rides in the same batch.
	ing.ObserveBatch(batchOf(0, sampleAt(0, 0, 0.5)))
	ing.ObserveBatch(batchOf(1, sampleAt(0, 1, 0.5), sampleAt(0, 1, 0.5)))
	// Step 2's reading is delayed into batch 3 (lateness 1 <= 2): it must
	// fold in order, so no gap forms.
	ing.ObserveBatch(batchOf(2))
	ing.ObserveBatch(batchOf(3, sampleAt(0, 2, 0.5), sampleAt(0, 3, 0.5)))
	// Step 4's reading is corrupt (NaN); the gap it leaves is carried over
	// when step 5 folds.
	ing.ObserveBatch(batchOf(4, sampleAt(0, 4, math.NaN())))
	ing.ObserveBatch(batchOf(5, sampleAt(0, 5, 0.5)))
	// A step-3 reading resurfacing at batch 6 is beyond the watermark
	// (6 - 2 = 4 > 3): quarantined late, and the on-time reading is kept.
	ing.ObserveBatch(batchOf(6, sampleAt(0, 3, 0.5), sampleAt(0, 6, 0.5)))
	ing.Finish()

	acc := ing.accs[0]
	if acc == nil {
		t.Fatal("VM 0 accumulator missing")
	}
	if got := acc.ac.N(); got != 7 {
		t.Errorf("VM 0 folded %d samples, want 7 (steps 0-6, one carried)", got)
	}
	if acc.next != 7 {
		t.Errorf("VM 0 expects step %d next, want 7", acc.next)
	}
	want := FaultStats{
		Reordered:          1,
		DuplicatesDropped:  1,
		QuarantinedCorrupt: 1,
		QuarantinedLate:    1,
		GapsFilled:         1,
	}
	if got := ing.FaultStats(); got != want {
		t.Errorf("fault ledger = %+v, want %+v", got, want)
	}
}

// TestIngestorRefusesPostRetirementSamples pins that a sample surfacing
// after its VM's deletion folded cannot resurrect the series.
func TestIngestorRefusesPostRetirementSamples(t *testing.T) {
	tr := microTrace()
	ing := newIngestor(tr, Options{MaxLatenessSteps: 2, FoldEverySteps: 10000}, shardMetrics(0))

	for s := 0; s < 3; s++ {
		ing.ObserveBatch(batchOf(s, sampleAt(0, s, 0.5), sampleAt(1, s, 0.5)))
	}
	ing.ObserveBatch(StepBatch{Step: 3, Late: []Sample{sampleAt(0, 3, 0.5)}, Deleted: []int32{1}})
	// VM 1 is retired once slot 3 folds; a step-4 reading for it afterwards
	// must be refused, not re-tracked.
	for s := 4; s < 8; s++ {
		ing.ObserveBatch(batchOf(s, sampleAt(0, s, 0.5), sampleAt(1, s, 0.5)))
	}
	ing.Finish()

	if ing.accs[1] != nil {
		t.Error("retired VM 1 was re-tracked")
	}
	fs := ing.FaultStats()
	if fs.QuarantinedLate != 4 {
		t.Errorf("QuarantinedLate = %d, want 4 (post-retirement readings)", fs.QuarantinedLate)
	}
	if ss := ing.subFor("micro"); ss == nil || ss.vmsObserved != 2 {
		t.Errorf("subscription observed %v VMs, want exactly 2", ss.vmsObserved)
	}
}

// TestGapPolicies pins the three repair policies on the same dropped-steps
// scenario: samples at steps 0 and 3, steps 1-2 lost.
func TestGapPolicies(t *testing.T) {
	run := func(p GapPolicy) (*Ingestor, *vmAcc) {
		tr := microTrace()
		ing := newIngestor(tr, Options{MaxLatenessSteps: 0, GapPolicy: p, FoldEverySteps: 10000}, shardMetrics(0))
		ing.ObserveBatch(batchOf(0, sampleAt(0, 0, 0.2)))
		ing.ObserveBatch(batchOf(1))
		ing.ObserveBatch(batchOf(2))
		ing.ObserveBatch(batchOf(3, sampleAt(0, 3, 0.8)))
		ing.Finish()
		return ing, ing.accs[0]
	}

	ing, acc := run(GapCarry)
	// The ring stores float32, so compare at that precision.
	if got := acc.ac.Retained(nil); len(got) != 4 ||
		math.Abs(got[1]-0.2) > 1e-6 || math.Abs(got[2]-0.2) > 1e-6 {
		t.Errorf("carry series = %v, want last value repeated across the gap", got)
	}
	if fs := ing.FaultStats(); fs.GapsFilled != 2 || fs.GapsSkipped != 0 {
		t.Errorf("carry ledger = %+v, want 2 fills", fs)
	}

	ing, acc = run(GapInterpolate)
	got := acc.ac.Retained(nil)
	want := []float64{0.2, 0.4, 0.6, 0.8}
	if len(got) != len(want) {
		t.Fatalf("interpolate series = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Errorf("interpolate series[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if fs := ing.FaultStats(); fs.GapsFilled != 2 {
		t.Errorf("interpolate ledger = %+v, want 2 fills", fs)
	}

	ing, acc = run(GapSkip)
	if got := acc.ac.Retained(nil); len(got) != 2 {
		t.Errorf("skip series = %v, want just the two delivered samples", got)
	}
	if fs := ing.FaultStats(); fs.GapsSkipped != 2 || fs.GapsFilled != 0 {
		t.Errorf("skip ledger = %+v, want 2 skips and no fills", fs)
	}
}

// TestParseGapPolicy covers the flag spellings both ways.
func TestParseGapPolicy(t *testing.T) {
	for _, p := range []GapPolicy{GapCarry, GapSkip, GapInterpolate} {
		got, err := ParseGapPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseGapPolicy(%q) = (%v, %v), want %v", p.String(), got, err, p)
		}
	}
	if got, err := ParseGapPolicy(""); err != nil || got != GapCarry {
		t.Errorf("empty spelling = (%v, %v), want carry", got, err)
	}
	if _, err := ParseGapPolicy("nonsense"); err == nil {
		t.Error("unknown spelling did not error")
	}
}
