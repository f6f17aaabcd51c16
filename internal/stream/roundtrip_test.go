package stream_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"cloudlens/internal/faultgen"
	"cloudlens/internal/kb"
	"cloudlens/internal/stream"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// An external test package so the fault injector (which imports stream) can
// drive the codec with every ledger counter live.

// shardFaults lists the engine's cumulative fault counters per shard (one
// entry for a lone ingestor). WatermarkLag is dropped: it is a gauge derived
// from the live ring on every read, not a counter the checkpoint stores.
func shardFaults(eng stream.Engine) []stream.FaultStats {
	out := []stream.FaultStats{eng.FaultStats()}
	if vitals := eng.ShardVitals(); vitals != nil {
		out = out[:0]
		for _, v := range vitals {
			out = append(out, v.Faults)
		}
	}
	for i := range out {
		out[i].WatermarkLag = 0
	}
	return out
}

// replayThroughCodec replays the faulty trace into a fresh engine and, when
// killStep >= 0, passes the engine through the checkpoint codec after that
// batch — encode, decode, restore — and finishes on the restored instance.
// The source (and so the injector's draw sequence) survives the swap, so a
// lossless codec leaves the final state identical to an uninterrupted run's.
// It returns the final knowledge-base fingerprint.
func replayThroughCodec(t *testing.T, tr *trace.Trace, opts stream.Options, spec faultgen.Spec, killStep int) string {
	t.Helper()
	var inj *faultgen.Injector
	src := spec.Wrap(tr.Grid.N, 0, &inj)(stream.NewReplayer(tr, opts))
	eng := stream.NewEngine(tr, opts)
	eng.SetRecycler(src.Recycle)
	errCh := make(chan error, 1)
	go func() { errCh <- src.Run(context.Background()) }()
	for b := range src.Events() {
		step := b.Step
		eng.ObserveBatch(b)
		if step != killStep {
			continue
		}
		var buf bytes.Buffer
		if err := eng.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("write at step %d: %v", step, err)
		}
		// Read after the write: its barrier has drained every routed batch
		// into the shards and nothing more arrives until this loop goes
		// round, so the counters now are the ones that were captured. (Read
		// before it, a sharded engine's books trail its router.)
		before := shardFaults(eng)
		ck, err := stream.ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
		if err != nil {
			t.Fatalf("read at step %d: %v", step, err)
		}
		if ck.LastStep != step || len(ck.Shards) != len(before) {
			t.Fatalf("checkpoint holds step %d in %d shards, killed at %d with %d", ck.LastStep, len(ck.Shards), step, len(before))
		}
		restored, err := stream.RestoreEngine(tr, opts, ck)
		if err != nil {
			t.Fatalf("restore at step %d: %v", step, err)
		}
		after := shardFaults(restored)
		for i, want := range before {
			if want == (stream.FaultStats{}) {
				continue // an empty shard proves nothing
			}
			if inFile := ck.Shards[i].Faults; inFile != want || after[i] != want {
				t.Errorf("shard %d fault ledger: engine %+v, file %+v, restored %+v", i, want, inFile, after[i])
			}
		}
		eng.Abort()
		restored.SetRecycler(src.Recycle)
		eng = restored
	}
	if err := <-errCh; err != nil {
		t.Fatalf("replay: %v", err)
	}
	eng.Finish()

	// The books still reconcile with the injector's after a trip through
	// the codec: no counter is lost or double-counted by it.
	led, fs := inj.Ledger(), eng.FaultStats()
	if led.Dropped == 0 || led.Duplicated == 0 || led.Delayed == 0 || led.Corrupted == 0 {
		t.Fatalf("injector ledger %+v leaves a fault kind undrawn; the trace is too small for the spec", led)
	}
	if fs.DuplicatesDropped != led.Duplicated || fs.Reordered != led.Delayed || fs.QuarantinedCorrupt != led.Corrupted || fs.QuarantinedLate != 0 {
		t.Errorf("kill at %d: stream ledger %+v does not reconcile with injector %+v", killStep, fs, led)
	}
	return kb.NewSnapshot(eng.KB(), tr.Grid.N, 0).Fingerprint()
}

// TestCheckpointRoundTripMatrix kills a faulty replay at a mid-window batch
// boundary in every combination of workload family, shard count and gap
// policy, and requires the codec to be invisible: per-shard fault ledgers
// equal field for field across write/read/restore, and the resumed run's
// final knowledge base equal to the uninterrupted run's.
func TestCheckpointRoundTripMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("36 faulty replays; skipped in -short mode")
	}
	cpu := workload.DefaultConfig(11)
	cpu.Scale = 0.006
	cpuTrace, err := workload.Generate(cpu)
	if err != nil {
		t.Fatalf("generate cpu: %v", err)
	}
	sl := workload.DefaultServerlessConfig(11)
	sl.Scale = 0.25
	serverlessTrace, err := workload.GenerateServerless(sl)
	if err != nil {
		t.Fatalf("generate serverless: %v", err)
	}
	spec := faultgen.Spec{Seed: 11, Drop: 0.01, Dup: 0.005, Delay: 0.01, MaxDelaySteps: 3, Corrupt: 0.002}

	for _, tr := range []*trace.Trace{cpuTrace, serverlessTrace} {
		for _, shards := range []int{1, 2, 4} {
			for _, policy := range []stream.GapPolicy{stream.GapCarry, stream.GapSkip, stream.GapInterpolate} {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", tr.Family, shards, policy), func(t *testing.T) {
					opts := stream.Options{Shards: shards, GapPolicy: policy, MaxLatenessSteps: spec.MaxDelaySteps}
					// Off any fold boundary, with the reorder ring populated.
					kill := tr.Grid.N/2 + 7
					want := replayThroughCodec(t, tr, opts, spec, -1)
					if got := replayThroughCodec(t, tr, opts, spec, kill); got != want {
						t.Errorf("resumed run finished on %s, uninterrupted on %s", got, want)
					}
				})
			}
		}
	}
}
