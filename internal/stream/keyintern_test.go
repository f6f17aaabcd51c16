package stream

import (
	"bytes"
	"reflect"
	"testing"
)

// colMiniScript is ringScript's columnar sibling over miniTrace: batches
// arrive in the replayer's column layout (VM/CPU arrays), with gaps for
// several VMs, a step lost entirely, late rows resurfacing behind later
// columns, a columnar duplicate, and an in-flight deletion. VMs 0/1 live
// in subscription "multi" (regions r1/r2), 6/7 in "solo" (r1), so the
// interned key table has real routing work to survive the resume.
func colMiniScript() []StepBatch {
	mk := func(step int, vms []int32, cpus []float32) StepBatch {
		return StepBatch{Step: step, VM: vms, CPU: cpus}
	}
	return []StepBatch{
		mk(0, []int32{0, 1, 6, 7}, []float32{0.25, 0.5, 0.125, 0.375}),
		mk(1, []int32{1, 6, 7}, []float32{0.5, 0.25, 0.375}), // VM 0's step-1 reading lost
		{Step: 2}, // the whole step is lost; only the watermark advances
		{Step: 3, VM: []int32{0, 6, 7}, CPU: []float32{0.75, 0.5, 0.25},
			// Two step-2 readings resurface one step late, behind the
			// on-time columns; VM 1 dies with all of it in flight.
			Late:    []Sample{sampleAt(1, 2, 0.625), sampleAt(6, 2, 0.5)},
			Deleted: []int32{1}},
		mk(4, []int32{0, 0, 6, 7}, []float32{0.8125, 0.8125, 0.125, 0.25}), // duplicate inside the column
		{Step: 5},
		mk(6, []int32{0, 6, 7}, []float32{0.9375, 0.5, 0.5}), // step 5 lost: second gap
		mk(7, []int32{0, 6, 7}, []float32{0.125, 0.25, 0.375}),
		mk(8, []int32{0, 6, 7}, []float32{0.3125, 0.5, 0.625}),
	}
}

// TestKeyInterningSurvivesColumnarResume is the interning golden for the
// columnar layout: under each gap policy, kill the column-fed run at every
// batch boundary, resume from the serialized checkpoint, and require (a)
// the resumed ingestor to route through the trace's one interned KeyTable
// — same instance, same dense ids — with every checkpointed subscription
// re-attached at its re-interned index, and (b) the finished state to be
// bit-identical to the uninterrupted run's.
func TestKeyInterningSurvivesColumnarResume(t *testing.T) {
	tr := miniTrace(t)
	keys := tr.Keys()
	nBatches := len(colMiniScript())

	for _, policy := range []GapPolicy{GapCarry, GapSkip, GapInterpolate} {
		opts := Options{MaxLatenessSteps: 2, GapPolicy: policy, FoldEverySteps: 10000}

		// ObserveBatch takes ownership of the column buffers, so every run
		// feeds a freshly built script.
		ref := NewEngine(tr, opts)
		for _, b := range colMiniScript() {
			ref.ObserveBatch(b)
		}
		ref.Finish()
		want := snapshotOf(soleShard(ref))

		for kill := 0; kill < nBatches; kill++ {
			eng := NewEngine(tr, opts)
			script := colMiniScript()
			for _, b := range script[:kill+1] {
				eng.ObserveBatch(b)
			}
			var buf bytes.Buffer
			if err := eng.WriteCheckpoint(&buf); err != nil {
				t.Fatalf("%v kill %d: write: %v", policy, kill, err)
			}
			ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
			if err != nil {
				t.Fatalf("%v kill %d: read: %v", policy, kill, err)
			}
			restored, err := RestoreEngine(tr, opts, ck)
			if err != nil {
				t.Fatalf("%v kill %d: restore: %v", policy, kill, err)
			}
			resumed := soleShard(restored)

			// The checkpoint carries subscription state under string IDs;
			// the restore must re-intern each against the trace's table and
			// land the state at the same dense index the live run used.
			if resumed.keys != keys {
				t.Fatalf("%v kill %d: resumed ingestor built its own key table", policy, kill)
			}
			for _, sub := range ck.Shards[0].Subs {
				idx, ok := keys.SubIndex(sub.ID)
				if !ok {
					t.Fatalf("%v kill %d: checkpointed subscription %q not in the key table", policy, kill, sub.ID)
				}
				ss := resumed.subs[idx]
				if ss == nil {
					t.Fatalf("%v kill %d: subscription %q not re-attached at interned id %d", policy, kill, sub.ID, idx)
				}
				if len(ss.regionHours) != len(keys.Regions) {
					t.Errorf("%v kill %d: %q region-hour table sized %d, want %d (one per interned region)",
						policy, kill, sub.ID, len(ss.regionHours), len(keys.Regions))
				}
			}
			// Once step 0 has folded (the watermark reaches it when batch 2
			// arrives), both subscriptions are tracked and the round trip
			// must preserve both interned entries.
			if kill >= 2 && len(ck.Shards[0].Subs) != 2 {
				t.Errorf("%v kill %d: checkpoint holds %d subscriptions, want 2", policy, kill, len(ck.Shards[0].Subs))
			}

			script = colMiniScript()
			for _, b := range script[kill+1:] {
				restored.ObserveBatch(b)
			}
			restored.Finish()
			if got := snapshotOf(resumed); !reflect.DeepEqual(got, want) {
				t.Errorf("%v kill %d: final state diverged from uninterrupted run\nresumed: %+v\nwant:    %+v",
					policy, kill, got, want)
			}
		}
	}
}
