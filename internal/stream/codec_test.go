package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudlens/internal/kb"
)

// TestCheckpointBytesCanonical pins that one state has one encoding: the
// same quiesced engine written twice yields identical bytes (maps are
// emitted in key order, not iteration order), and decoding a file and
// encoding the result reproduces it byte for byte.
func TestCheckpointBytesCanonical(t *testing.T) {
	tr := miniTrace(t)
	for _, shards := range []int{1, 4} {
		eng := engineAt(t, tr, Options{FoldEverySteps: 12, Shards: shards}, 1007)
		var first, second, again bytes.Buffer
		if err := eng.WriteCheckpoint(&first); err != nil {
			t.Fatalf("shards=%d: write: %v", shards, err)
		}
		if err := eng.WriteCheckpoint(&second); err != nil {
			t.Fatalf("shards=%d: second write: %v", shards, err)
		}
		eng.Abort()
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("shards=%d: two checkpoints of one quiesced engine differ", shards)
		}
		ck, err := ReadCheckpoint(bytes.NewReader(first.Bytes()), tr)
		if err != nil {
			t.Fatalf("shards=%d: read: %v", shards, err)
		}
		if _, err := writeCheckpoint(&again, tr, ck); err != nil {
			t.Fatalf("shards=%d: re-encode: %v", shards, err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Errorf("shards=%d: encode(decode(file)) differs from file", shards)
		}
	}
}

// shardedCheckpointBytes is checkpointBytes written by a two-shard engine,
// so the section table has more than one entry (microTrace's one
// subscription leaves the other shard's section nearly empty).
func shardedCheckpointBytes(t testing.TB) []byte {
	t.Helper()
	eng := NewEngine(microTrace(), Options{Shards: 2, MaxLatenessSteps: 2, FoldEverySteps: 10000})
	defer eng.Abort()
	eng.ObserveBatch(batchOf(0, sampleAt(0, 0, 0.2), sampleAt(1, 0, 0.4)))
	eng.ObserveBatch(batchOf(1, sampleAt(0, 1, 0.3)))
	eng.ObserveBatch(batchOf(3, sampleAt(0, 3, 0.5)))
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestCheckpointRefusesDamage pins the integrity contract: every strict
// prefix of a valid file, and a flipped byte at every header offset and at
// 256 offsets spread over the sections, is refused with an error — never a
// panic, never a checkpoint.
func TestCheckpointRefusesDamage(t *testing.T) {
	tr := microTrace()
	valid := shardedCheckpointBytes(t)
	if _, err := ReadCheckpoint(bytes.NewReader(valid), tr); err != nil {
		t.Fatalf("undamaged file refused: %v", err)
	}
	for n := 0; n < len(valid); n++ {
		if _, err := decodeCheckpoint(valid[:n], tr); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte file accepted", n, len(valid))
		}
	}

	hdr := headerLen(2)
	offsets := make([]int, 0, hdr+256)
	for i := 0; i < hdr; i++ {
		offsets = append(offsets, i)
	}
	for i := 0; i < 256; i++ {
		offsets = append(offsets, hdr+i*(len(valid)-hdr)/256)
	}
	for _, off := range offsets {
		for _, bit := range []byte{0x01, 0x80} {
			mut := bytes.Clone(valid)
			mut[off] ^= bit
			if _, err := ReadCheckpoint(bytes.NewReader(mut), tr); err == nil {
				t.Errorf("flip %#02x at offset %d of %d accepted", bit, off, len(valid))
			}
		}
	}
}

// TestCheckpointRefusesOtherVersions pins the compatibility policy's
// refusals: a pre-v6 (gzip) file, a later envelope version, and an unknown
// evidence layout each fail with a message naming the number found and the
// number this build reads.
func TestCheckpointRefusesOtherVersions(t *testing.T) {
	tr := microTrace()
	valid := checkpointBytes(t)
	refused := func(what string, data []byte, want ...string) {
		t.Helper()
		_, err := ReadCheckpoint(bytes.NewReader(data), tr)
		if err == nil {
			t.Fatalf("%s accepted", what)
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", what, err, w)
			}
		}
	}

	refused("gzip stream", []byte{0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff}, "versions 1-5", "version 6")

	newer := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(newer[len(checkpointMagic):], CheckpointVersion+1)
	refused("version 7 envelope", newer, "version 7", "reads 6")

	// The tag's offset depends on everything encoded before the first
	// accumulator, so find it: the one byte holding evidenceLayout whose
	// change draws the layout refusal.
	section := encodeShardSection(checkpointOf(t).Shards[0])
	found := false
	for i, b := range section {
		if b != evidenceLayout {
			continue
		}
		mut := bytes.Clone(section)
		mut[i] = 9
		if _, err := decodeShardSection(mut); err != nil && strings.Contains(err.Error(), "evidence layout 9, this build reads 1") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no byte of the section draws the evidence-layout refusal")
	}
}

// fixtureEngineState drives microTrace to the mid-window state the checked-in
// fixture was written from: 1000 replayed steps, then a hand-fed batch that
// leaves a gap at step 1001 and step 1002 parked in the reorder ring.
func fixtureEngineState(t *testing.T) Engine {
	eng := engineAt(t, microTrace(), Options{MaxLatenessSteps: 2}, 1000)
	eng.ObserveBatch(batchOf(1002, sampleAt(0, 1002, 0.5)))
	return eng
}

const (
	fixturePath = "testdata/checkpoint_v6_micro.ckpt"
	// fixtureFingerprint is the knowledge base the fixture resumes to.
	fixtureFingerprint = "fnv1a:c9132025817be381"
)

// TestCheckpointFixtureV6 is the compatibility anchor (DESIGN.md §11): a v6
// file written by the build that introduced the format must load, resume
// and finish on the same knowledge base in every later build. Never
// regenerate the file to make this pass; a build that cannot read it has
// broken the promise the policy makes.
func TestCheckpointFixtureV6(t *testing.T) {
	tr := microTrace()
	ck, err := LoadCheckpointFile(fixturePath, tr)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if ck.LastStep != 1002 || len(ck.Shards) != 1 || len(ck.Shards[0].Slots) == 0 {
		t.Fatalf("fixture holds step %d, %d shards; want step 1002, one shard with a pending ring", ck.LastStep, len(ck.Shards))
	}
	p, err := NewResumedPipeline(tr, Options{}, ck)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	p.Start(context.Background())
	if err := p.Wait(); err != nil {
		t.Fatalf("resumed pipeline: %v", err)
	}
	if got := kb.NewSnapshot(p.KB(), tr.Grid.N, 0).Fingerprint(); got != fixtureFingerprint {
		t.Errorf("fixture resumed to knowledge base %s, pinned %s", got, fixtureFingerprint)
	}
}

// TestWriteCheckpointFixture writes the fixture once. It refuses to replace
// an existing file: the fixture's value is that old bytes keep loading.
func TestWriteCheckpointFixture(t *testing.T) {
	if os.Getenv("CLOUDLENS_WRITE_CORPUS") == "" {
		t.Skip("fixture generator; set CLOUDLENS_WRITE_CORPUS=1 to write a missing fixture")
	}
	if _, err := os.Stat(fixturePath); err == nil {
		t.Skipf("%s exists; it is never regenerated", fixturePath)
	}
	eng := fixtureEngineState(t)
	defer eng.Abort()
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fixturePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSaveCheckpointReportsFileStep pins that CheckpointInfo describes the
// file, not the pipeline: under live ingestion the step it reports is the
// captured snapshot's, however far the replay ran while the bytes were
// being written, and Bytes is the file's size.
func TestSaveCheckpointReportsFileStep(t *testing.T) {
	tr := miniTrace(t)
	// Paced so the week lasts a few hundred milliseconds: long enough for
	// several checkpoints to land mid-replay, each racing live ingestion.
	p := NewPipeline(tr, Options{Shards: 2, Speedup: float64(tr.Grid.Step) / float64(200*time.Microsecond)})
	p.Start(context.Background())
	defer p.Stop()
	path := filepath.Join(t.TempDir(), "live.ckpt")
	mid := 0
	for !p.Status().Done {
		info, err := p.SaveCheckpoint(path)
		if err != nil {
			t.Fatalf("save: %v", err)
		}
		ck, err := LoadCheckpointFile(path, tr)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if info.Step != ck.LastStep {
			t.Fatalf("info reports step %d, the file holds step %d", info.Step, ck.LastStep)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Bytes != st.Size() || mCheckpointBytes.Value() != float64(st.Size()) {
			t.Fatalf("info reports %d bytes, gauge %v, the file is %d", info.Bytes, mCheckpointBytes.Value(), st.Size())
		}
		if last, ok := p.LastCheckpoint(); !ok || last != info {
			t.Fatalf("LastCheckpoint = %+v, SaveCheckpoint returned %+v", last, info)
		}
		if info.Step > 0 && info.Step < tr.Grid.N {
			mid++
		}
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if mid == 0 {
		t.Fatal("no checkpoint landed mid-replay; the test raced nothing")
	}
}
