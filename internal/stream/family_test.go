package stream

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/workload"
)

// replayServerless generates a serverless trace from the config and replays
// it through a fresh pipeline, returning the trace, the batch knowledge
// base, and the live one.
func replayServerless(t *testing.T, cfg workload.ServerlessConfig) (*kb.Snapshot, *kb.Snapshot) {
	t.Helper()
	tr, err := workload.GenerateServerless(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	batch := kb.Extract(tr, kb.ExtractOptions{})
	p := NewPipeline(tr, Options{})
	p.Start(context.Background())
	if err := p.Wait(); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return batch, p.KB()
}

// assertFamilyAgreement holds the live knowledge base to the batch one on
// the serverless family's structural contract: every batch profile present,
// tagged serverless, with the identical dominant pattern drawn from the
// family taxonomy. Agreement is exact (not a 95% band): both classifiers
// build their evidence with the same sketch over the same sample order, so
// a lossless replay has no legitimate source of disagreement.
func assertFamilyAgreement(t *testing.T, batch, live *kb.Snapshot) {
	t.Helper()
	all := kb.Query{MinRegionAgnosticScore: -2}
	bps := batch.List(all)
	if len(bps) == 0 {
		t.Fatal("batch kb extracted no profiles")
	}
	classified := 0
	for _, want := range bps {
		got, ok := live.Get(want.Subscription)
		if !ok {
			t.Fatalf("live kb missing subscription %s", want.Subscription)
		}
		if want.Family != core.FamilyServerless || got.Family != core.FamilyServerless {
			t.Errorf("%s family: batch %s, live %s (want serverless)",
				want.Subscription, want.Family, got.Family)
		}
		if want.DominantPattern == core.PatternUnknown {
			continue
		}
		classified++
		if !core.FamilyServerless.Has(want.DominantPattern) {
			t.Errorf("%s batch pattern %s outside the serverless taxonomy",
				want.Subscription, want.DominantPattern)
		}
		if got.DominantPattern != want.DominantPattern {
			t.Errorf("%s dominant pattern: batch %s, live %s",
				want.Subscription, want.DominantPattern, got.DominantPattern)
		}
	}
	if classified == 0 {
		t.Fatal("batch kb classified no subscriptions")
	}
}

// TestGoldenServerlessStreamMatchesBatch replays the default serverless
// universe (one-minute grid) and holds the live knowledge base to the batch
// extractor's output with exact dominant-pattern agreement — the family
// oracle the diffcheck gauntlet also enforces.
func TestGoldenServerlessStreamMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day replay; skipped in -short mode")
	}
	batch, live := replayServerless(t, workload.DefaultServerlessConfig(42))
	assertFamilyAgreement(t, batch, live)
}

// TestLivePercentilesServerlessBands replays the default serverless week and
// holds the live percentile report to the knowledge base it was captured
// with: one band per dominant pattern present, in the family's taxonomy
// order, each counting that pattern's profiles, so the bands together count
// every classified profile. The bands used to walk the CPU taxonomy and
// dropped every serverless-only pattern.
func TestLivePercentilesServerlessBands(t *testing.T) {
	tr, err := workload.GenerateServerless(workload.DefaultServerlessConfig(42))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	p := NewPipeline(tr, Options{})
	p.Start(context.Background())
	if err := p.Wait(); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	capture := p.Engine().CaptureLive()
	want := make(map[core.Pattern]int)
	for _, prof := range capture.KB.Profiles() {
		if prof.DominantPattern != core.PatternUnknown {
			want[prof.DominantPattern]++
		}
	}
	var wantBands []core.Pattern
	for _, pat := range core.FamilyServerless.Patterns() {
		if want[pat] > 0 {
			wantBands = append(wantBands, pat)
		}
	}
	var gotBands []core.Pattern
	for _, b := range capture.Patterns {
		gotBands = append(gotBands, b.Pattern)
		if b.Subscriptions != want[b.Pattern] {
			t.Errorf("%s band counts %d subscriptions, the kb has %d", b.Pattern, b.Subscriptions, want[b.Pattern])
		}
	}
	if !slices.Equal(gotBands, wantBands) {
		t.Errorf("bands %v, want %v (dominant patterns %v)", gotBands, wantBands, want)
	}
}

// TestServerlessSubMinuteGridEquivalence pins the grid-assumption fixes: a
// 30-second step (120 steps/hour) used to divide by zero in the ingestor's
// 60/StepMinutes arithmetic and to mis-qualify VMs against the hard-coded
// 288-step day. Batch and stream must still agree exactly.
func TestServerlessSubMinuteGridEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day replay; skipped in -short mode")
	}
	cfg := workload.DefaultServerlessConfig(7)
	cfg.Apps = 8
	cfg.Grid.Step = 30 * time.Second
	cfg.Grid.N = 2 * cfg.Grid.StepsPerDay()
	batch, live := replayServerless(t, cfg)
	assertFamilyAgreement(t, batch, live)
}

// TestServerlessCoarseGridEquivalence runs the same equivalence at a
// 15-minute step — the coarse direction of the same fixed-grid assumption
// (a "day" is 96 steps there, not 288).
func TestServerlessCoarseGridEquivalence(t *testing.T) {
	cfg := workload.DefaultServerlessConfig(11)
	cfg.Apps = 8
	cfg.Grid.Step = 15 * time.Minute
	cfg.Grid.N = 3 * cfg.Grid.StepsPerDay()
	batch, live := replayServerless(t, cfg)
	assertFamilyAgreement(t, batch, live)
}

// TestCheckpointRejectsForeignFamily pins the checkpoint preamble guard: a
// checkpoint written while ingesting one family must not restore against a
// trace of another, even when everything else about the traces lines up.
func TestCheckpointRejectsForeignFamily(t *testing.T) {
	tr := microTrace()
	eng := NewEngine(tr, Options{})
	eng.ObserveBatch(batchOf(0, sampleAt(0, 0, 0.5)))
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}

	foreign := microTrace()
	foreign.Family = core.FamilyServerless
	_, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), foreign)
	if err == nil {
		t.Fatal("cpu-family checkpoint accepted against a serverless trace")
	}
	if !strings.Contains(err.Error(), "family") {
		t.Errorf("error %q does not name the family mismatch", err)
	}
}

// TestCheckpointRejectsForeignGrid pins the other half of the preamble
// guard: the checkpoint carries the grid step it was written on, and a
// trace sampled at a different interval must be refused before any state
// is deserialized.
func TestCheckpointRejectsForeignGrid(t *testing.T) {
	tr := microTrace()
	eng := NewEngine(tr, Options{})
	eng.ObserveBatch(batchOf(0, sampleAt(0, 0, 0.5)))
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}

	foreign := microTrace()
	foreign.Grid.Step = time.Minute
	_, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), foreign)
	if err == nil {
		t.Fatal("5-minute-grid checkpoint accepted against a 1-minute trace")
	}
	if !strings.Contains(err.Error(), "grid") {
		t.Errorf("error %q does not name the grid mismatch", err)
	}
}
