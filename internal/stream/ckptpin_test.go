package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestOneShardCheckpointBytesPinned pins the exact bytes a one-shard engine
// writes mid-replay, once per gap policy: microTrace replayed to step 1000,
// then hand-fed batches that open a gap at step 1001, repair it when step
// 1002 folds, and leave steps 1003-1004 parked in the reorder ring. The
// hashes cover every field the file carries — fold count, ring, cursors,
// sketches — so any change to what a single-shard engine captures, or to
// how often it has folded by then, shows up here.
func TestOneShardCheckpointBytesPinned(t *testing.T) {
	want := map[GapPolicy]string{
		GapCarry:       "abc1ff61fa8972395880236fdc2dc8a8d320cd9880c7a1113a2aa32f8b22261b",
		GapSkip:        "efbc0c0570580d5ea0f1b371a28e178e7920cc3779fbdd8726fb801545bc03aa",
		GapInterpolate: "86921fba371073893683131e09f2818add41cae377409b3a181695fa0a737516",
	}
	for _, policy := range []GapPolicy{GapCarry, GapSkip, GapInterpolate} {
		eng := engineAt(t, microTrace(), Options{MaxLatenessSteps: 2, GapPolicy: policy}, 1000)
		eng.ObserveBatch(batchOf(1002, sampleAt(0, 1002, 0.75)))
		eng.ObserveBatch(batchOf(1003, sampleAt(0, 1003, 0.25)))
		eng.ObserveBatch(batchOf(1004, sampleAt(0, 1004, 0.5)))
		var buf bytes.Buffer
		err := eng.WriteCheckpoint(&buf)
		eng.Abort()
		if err != nil {
			t.Fatalf("%v: write: %v", policy, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[policy] {
			t.Errorf("%v: one-shard checkpoint (%d bytes) hashes to %s, pinned %s", policy, buf.Len(), got, want[policy])
		}
	}
}
