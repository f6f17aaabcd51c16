package stream

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
)

// ringScript is a deterministic hand-fed batch schedule over microTrace
// exercising everything the reorder ring and gap machinery can hold at
// once: delayed samples still parked above the watermark, an unrepaired
// gap, a duplicate, and a deletion in flight. Kill points are chosen so a
// checkpoint lands in the middle of all of it.
func ringScript() []StepBatch {
	return []StepBatch{
		batchOf(0, sampleAt(0, 0, 0.2), sampleAt(1, 0, 0.3)),
		batchOf(1, sampleAt(1, 1, 0.5)), // VM 0's step-1 reading is lost: a gap
		batchOf(2),                      // empty batch only advances the watermark
		// Steps 2's readings surface late (lateness 1 <= 2) together with
		// step 3's, and VM 1 dies at step 3 — all of it in flight at once.
		{Step: 3, Late: []Sample{
			sampleAt(0, 2, 0.6), sampleAt(1, 2, 0.4), sampleAt(0, 3, 0.7),
		}, Deleted: []int32{1}},
		batchOf(4, sampleAt(0, 4, 0.8), sampleAt(0, 4, 0.8)), // exact duplicate
		batchOf(5),
		batchOf(6, sampleAt(0, 6, 0.9)), // step 5 lost: second gap
		batchOf(7, sampleAt(0, 7, 0.1)),
		batchOf(8, sampleAt(0, 8, 0.3)),
	}
}

// normalizeCheckpoint sorts the map-ordered sections so two checkpoints of
// identical state compare DeepEqual.
func normalizeCheckpoint(ck *ShardCheckpoint) *ShardCheckpoint {
	sort.Slice(ck.Subs, func(i, j int) bool { return ck.Subs[i].ID < ck.Subs[j].ID })
	sort.Slice(ck.Slots, func(i, j int) bool { return ck.Slots[i].Step < ck.Slots[j].Step })
	return ck
}

// snapshotOf captures an ingestor's complete state for comparison.
func snapshotOf(ing *Ingestor) *ShardCheckpoint {
	return normalizeCheckpoint(ing.snapshot())
}

// TestKillResumeMidFlightRingAllPolicies is the gap-policy golden: under
// each of carry, skip, and interpolate, kill the hand-fed run at every
// batch boundary — including ones where the reorder ring holds undelivered
// steps and a VM 0 gap is still open — resume from the serialized bytes,
// finish, and require the final state to be bit-identical to the
// uninterrupted run's, checkpoint field by checkpoint field.
func TestKillResumeMidFlightRingAllPolicies(t *testing.T) {
	// ObserveBatch takes ownership of each batch's sample buffer, so every
	// run gets its own freshly built script.
	nBatches := len(ringScript())
	for _, policy := range []GapPolicy{GapCarry, GapSkip, GapInterpolate} {
		opts := Options{MaxLatenessSteps: 2, GapPolicy: policy, FoldEverySteps: 10000}

		ref := NewEngine(microTrace(), opts)
		for _, b := range ringScript() {
			ref.ObserveBatch(b)
		}
		ref.Finish()
		want := snapshotOf(soleShard(ref))

		for kill := 0; kill < nBatches; kill++ {
			script := ringScript()
			tr := microTrace()
			eng := NewEngine(tr, opts)
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
			ing, resumed := soleShard(eng), soleShard(restored)

			// The restored in-flight state must equal the killed ingestor's
			// exactly: watermark, pending ring, and the open-gap cursor
			// (acc.next) plus last-value cache (acc.last) that the gap
			// policies read when the delayed fold finally happens.
			ing.mu.RLock()
			resumed.mu.RLock()
			if resumed.watermark != ing.watermark {
				t.Errorf("%v kill %d: restored watermark %d, killed at %d", policy, kill, resumed.watermark, ing.watermark)
			}
			for i := range ing.accs {
				ka, ra := ing.accs[i], resumed.accs[i]
				if (ka == nil) != (ra == nil) {
					t.Fatalf("%v kill %d: VM %d accumulator presence diverged", policy, kill, i)
				}
				if ka == nil {
					continue
				}
				if ra.next != ka.next || ra.last != ka.last || ra.from != ka.from || ra.seen != ka.seen {
					t.Errorf("%v kill %d: VM %d cursor restored as (next=%d last=%v from=%d seen=%v), killed with (next=%d last=%v from=%d seen=%v)",
						policy, kill, i, ra.next, ra.last, ra.from, ra.seen, ka.next, ka.last, ka.from, ka.seen)
				}
			}
			ringPending := 0
			for i := range ing.slots {
				ks, rs := &ing.slots[i], &resumed.slots[i]
				if ks.valid {
					ringPending++
				}
				if ks.valid != rs.valid || (ks.valid && ks.step != rs.step) {
					t.Errorf("%v kill %d: ring slot %d restored as (valid=%v step=%d), killed with (valid=%v step=%d)",
						policy, kill, i, rs.valid, rs.step, ks.valid, ks.step)
					continue
				}
				// Folded slots keep empty (non-nil) buffers for reuse while a
				// decoded checkpoint yields nil ones; only the contents matter.
				eqSlice := func(a, b interface{}, la, lb int) bool {
					return la == lb && (la == 0 || reflect.DeepEqual(a, b))
				}
				colsEq := eqSlice(ks.vm, rs.vm, len(ks.vm), len(rs.vm)) &&
					eqSlice(ks.cpu, rs.cpu, len(ks.cpu), len(rs.cpu))
				extrasEq := eqSlice(ks.extras, rs.extras, len(ks.extras), len(rs.extras))
				deletedEq := eqSlice(ks.deleted, rs.deleted, len(ks.deleted), len(rs.deleted))
				if ks.valid && (!colsEq || !extrasEq || !deletedEq) {
					t.Errorf("%v kill %d: ring slot %d contents diverged", policy, kill, i)
				}
			}
			resumed.mu.RUnlock()
			ing.mu.RUnlock()
			// The kill after batch 3 must genuinely catch steps parked in
			// the ring, or this test is not exercising what it claims.
			if kill == 3 && ringPending == 0 {
				t.Fatalf("%v kill %d: reorder ring empty; fixture no longer creates in-flight steps", policy, kill)
			}

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
