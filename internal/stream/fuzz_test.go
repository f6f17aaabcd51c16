package stream

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/trace"
)

// checkpointedEngine feeds a one-shard engine a few hand-built batches —
// including a delayed sample so the reorder ring is non-empty — and returns
// it mid flight, before Finish.
func checkpointedEngine(t testing.TB) *shardGroup {
	t.Helper()
	tr := microTrace()
	eng := NewEngine(tr, Options{MaxLatenessSteps: 2, FoldEverySteps: 10000})
	eng.ObserveBatch(batchOf(0, sampleAt(0, 0, 0.2), sampleAt(1, 0, 0.4)))
	eng.ObserveBatch(batchOf(1, sampleAt(0, 1, 0.3)))
	// Step 2 is missing for VM 0 and steps 2-3 arrive out of order, so the
	// snapshot carries pending slots above the watermark.
	eng.ObserveBatch(batchOf(3, sampleAt(0, 3, 0.5)))
	return eng.(*shardGroup)
}

// checkpointOf captures the mid-flight state as a mutable Checkpoint,
// exactly as WriteCheckpoint would encode it.
func checkpointOf(t testing.TB) *Checkpoint {
	t.Helper()
	return checkpointFrom(t, microTrace(), checkpointedEngine(t))
}

// writeCheckpoint writes a decoded or hand-built Checkpoint to w in the
// layout WriteCheckpoint gives a live engine's, and returns the bytes
// written.
func writeCheckpoint(w io.Writer, tr *trace.Trace, ck *Checkpoint) (int64, error) {
	sections := make([]section, len(ck.Shards))
	for i, sc := range ck.Shards {
		sections[i] = encodeSection(sc)
	}
	return writeSections(w, tr, ck, sections)
}

// checkpointFrom writes eng's checkpoint and reads it back: a Checkpoint
// the caller owns outright, free to mutate and restore.
func checkpointFrom(t testing.TB, tr *trace.Trace, eng Engine) *Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}
	ck, err := ReadCheckpoint(&buf, tr)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	return ck
}

// checkpointBytes serializes the mid-flight state as WriteCheckpoint would.
func checkpointBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := checkpointedEngine(t).WriteCheckpoint(&buf); err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}
	return buf.Bytes()
}

// FuzzReadCheckpoint decodes mutated snapshot bytes. Checkpoint files are
// read back across process restarts, so a bit flip on disk must surface as
// an error — never a panic in ReadCheckpoint, and never a panic or hang in
// the RestoreEngine that consumes an accepted checkpoint.
func FuzzReadCheckpoint(f *testing.F) {
	valid := checkpointBytes(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))
	f.Add(valid[:len(valid)/2])
	// A handful of single-byte corruptions of the real snapshot seed the
	// mutator at each layer of refusal: magic, version, an envelope field
	// (header checksum), and the section payload (section checksum). What
	// lies below the checksums is FuzzDecodeShardSection's.
	for _, i := range []int{0, len(checkpointMagic), envelopeLen - 1, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x41
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := microTrace()
		ck, err := ReadCheckpoint(bytes.NewReader(data), tr)
		if err != nil {
			return // rejection is the common, correct outcome
		}
		restoreAndFinish(t, tr, ck)
	})
}

// FuzzDecodeShardSection mutates one shard section below the checksum that
// guards it in a file: a CRC makes random file mutations die early, so the
// section parser — count prefixes, tags, map order — gets its own target.
// An accepted section must be the canonical encoding of what it decoded to,
// and must restore (or be refused by validation) like any checkpoint.
func FuzzDecodeShardSection(f *testing.F) {
	valid := encodeShardSection(checkpointOf(f).Shards[0])
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	for _, i := range []int{0, len(valid) / 3, len(valid) / 2, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x41
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := decodeShardSection(data)
		if err != nil {
			return
		}
		if again := encodeShardSection(sc); !bytes.Equal(again, data) {
			t.Fatalf("accepted a %d-byte section that re-encodes to %d different bytes", len(data), len(again))
		}
		tr := microTrace()
		restoreAndFinish(t, tr, &Checkpoint{
			ShardCount:      1,
			LastStep:        sc.LastStep,
			SamplesIngested: sc.SamplesIngested,
			StepsIngested:   sc.StepsIngested,
			FoldCount:       sc.FoldCount,
			Shards:          []*ShardCheckpoint{sc},
		})
	})
}

// restoreAndFinish holds whatever decoding accepted to the restore
// contract: it restores into a working engine or is refused with an
// error, and the engine folds the pending ring, ingests one more clean
// batch, and builds every profile without panicking or hanging.
func restoreAndFinish(t *testing.T, tr *trace.Trace, ck *Checkpoint) {
	eng, err := RestoreEngine(tr, Options{FoldEverySteps: 10000}, ck)
	if err != nil {
		return
	}
	next := ck.LastStep + 1
	if next >= 0 && next < tr.Grid.N {
		eng.ObserveBatch(batchOf(next, sampleAt(0, next, 0.5)))
	}
	eng.Finish()
	if _, ok := eng.KB().Get("micro"); !ok {
		t.Fatal("restored engine lost the subscription profile")
	}
}

// TestWriteReadCheckpointCorpus regenerates the checked-in seed corpus for
// FuzzReadCheckpoint (the binary entries cannot be hand-written). Set
// CLOUDLENS_WRITE_CORPUS=1 to rewrite testdata after a format change.
func TestWriteReadCheckpointCorpus(t *testing.T) {
	if os.Getenv("CLOUDLENS_WRITE_CORPUS") == "" {
		t.Skip("corpus generator; set CLOUDLENS_WRITE_CORPUS=1 to rewrite testdata")
	}
	valid := checkpointBytes(t)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x41
	entries := map[string][]byte{
		"valid-snapshot":     valid,
		"truncated-snapshot": valid[:len(valid)/2],
		"flipped-byte":       flipped,
		"empty":              {},
		"garbage":            []byte("not a checkpoint"),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadCheckpoint")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreRejectsNegativeClassifyCap pins a fuzz-found crash: a decoder
// faithfully delivers a negative MaxClassifyPerSub (one flipped sign bit),
// withDefaults only replaces a zero value, and buildProfile then slices
// cands[:negative] — a panic raised inside the restore itself while
// repopulating the knowledge base.
func TestRestoreRejectsNegativeClassifyCap(t *testing.T) {
	ck := checkpointOf(t)
	ck.Shards[0].MaxClassifyPerSub = -1
	if _, err := RestoreEngine(microTrace(), Options{}, ck); err == nil {
		t.Fatal("RestoreEngine accepted a negative classification cap")
	}
}

// TestRestoreRejectsOtherShortBin pins that a checkpoint carrying a
// short-lifetime bin other than kb.ShortBinMinutes is refused: the bin is a
// constant of the build, and a restore that adopted the file's value would
// count short-lived VMs by a different rule than the run that wrote it.
func TestRestoreRejectsOtherShortBin(t *testing.T) {
	ck := checkpointOf(t)
	ck.Shards[0].ShortBinMinutes = 60
	if _, err := RestoreEngine(microTrace(), Options{}, ck); err == nil {
		t.Fatal("RestoreEngine accepted a 60-minute short-lifetime bin")
	}
}

// TestRestoreRejectsOutOfRangeSlotVM pins that a pending reorder slot cannot
// smuggle a sample for a VM the trace does not have; before validation the
// panic surfaced only later, at the fold that drained the slot.
func TestRestoreRejectsOutOfRangeSlotVM(t *testing.T) {
	ck := checkpointOf(t)
	sc := ck.Shards[0]
	if len(sc.Slots) == 0 {
		t.Fatal("fixture checkpoint has no pending slots")
	}
	sc.Slots[0].Extras = append(sc.Slots[0].Extras, sampleAt(99, sc.Slots[0].Step, 0.5))
	if _, err := RestoreEngine(microTrace(), Options{}, ck); err == nil {
		t.Fatal("RestoreEngine accepted a slot sample for VM 99 of 2")
	}
}

// TestRestoreRejectsPoisonedSlotReading pins that buffered readings cannot
// bypass the quarantine ObserveBatch applies to live ones: a NaN parked in a
// pending slot used to fold straight into the accumulators.
func TestRestoreRejectsPoisonedSlotReading(t *testing.T) {
	ck := checkpointOf(t)
	sc := ck.Shards[0]
	if len(sc.Slots) == 0 {
		t.Fatal("fixture checkpoint has no pending slots")
	}
	sc.Slots[0].Extras = append(sc.Slots[0].Extras, sampleAt(0, sc.Slots[0].Step, math.NaN()))
	if _, err := RestoreEngine(microTrace(), Options{}, ck); err == nil {
		t.Fatal("RestoreEngine accepted a NaN reading in a pending slot")
	}
}

// TestRestoreRejectsImpossibleAccSpan pins the hang vector: an accumulator
// whose Next rewound to a huge negative (or tiny) value makes the next
// on-time sample "repair" a gap of billions of steps, looping in gap-fill
// for minutes. The span must stay inside the grid.
func TestRestoreRejectsImpossibleAccSpan(t *testing.T) {
	for name, mut := range map[string]func(*vmAccState){
		"negative from":    func(a *vmAccState) { a.From = -5 },
		"next at maxint":   func(a *vmAccState) { a.Next = math.MaxInt64 },
		"next before from": func(a *vmAccState) { a.Next = a.From },
	} {
		ck := checkpointOf(t)
		if len(ck.Shards[0].Accs) == 0 {
			t.Fatal("fixture checkpoint has no accumulators")
		}
		mut(&ck.Shards[0].Accs[0])
		if _, err := RestoreEngine(microTrace(), Options{}, ck); err == nil {
			t.Errorf("RestoreEngine accepted an accumulator with %s", name)
		}
	}
}

// TestRestoreRejectsImpossibleEvidence pins the evidence block's domain: a
// CRC-valid checkpoint used to restore with any six numbers there, and the
// resumed engine classified from them. Each row breaks one invariant the
// family's classify.Rules maintain, on a checkpoint that restores cleanly
// unmutated.
func TestRestoreRejectsImpossibleEvidence(t *testing.T) {
	cpu := microTrace()
	fn := microTrace()
	fn.Family = core.FamilyServerless
	eng := NewEngine(fn, Options{MaxLatenessSteps: 2, FoldEverySteps: 10000})
	eng.ObserveBatch(batchOf(0, sampleAt(0, 0, 0.02), sampleAt(1, 0, 0.4)))
	eng.ObserveBatch(batchOf(1, sampleAt(0, 1, 0.6)))
	eng.ObserveBatch(batchOf(3, sampleAt(0, 3, 0.01)))
	fnCheckpoint := func() *Checkpoint { return checkpointFrom(t, fn, eng) }
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		ck   func() *Checkpoint
		mut  func(*vmAccState)
	}{
		{"cpu unmutated", cpu, func() *Checkpoint { return checkpointOf(t) }, nil},
		{"cpu peak count off the sample count", cpu, func() *Checkpoint { return checkpointOf(t) }, func(a *vmAccState) { a.PeakN++ }},
		{"cpu negative peak count", cpu, func() *Checkpoint { return checkpointOf(t) }, func(a *vmAccState) { a.PeakN, a.RestN = a.PeakN-7, a.RestN+7 }},
		{"cpu peak sum below zero", cpu, func() *Checkpoint { return checkpointOf(t) }, func(a *vmAccState) { a.PeakSum = -1e300 }},
		{"cpu rest sum above its count", cpu, func() *Checkpoint { return checkpointOf(t) }, func(a *vmAccState) { a.RestSum = float64(a.RestN) + 1 }},
		{"cpu NaN rest sum", cpu, func() *Checkpoint { return checkpointOf(t) }, func(a *vmAccState) { a.RestSum = math.NaN() }},
		{"cpu invocation peak", cpu, func() *Checkpoint { return checkpointOf(t) }, func(a *vmAccState) { a.PeakMax = 0.5 }},
		{"cpu idle count", cpu, func() *Checkpoint { return checkpointOf(t) }, func(a *vmAccState) { a.IdleN = 1 << 40 }},
		{"serverless unmutated", fn, fnCheckpoint, nil},
		{"serverless alignment count", fn, fnCheckpoint, func(a *vmAccState) { a.PeakN = 1 }},
		{"serverless alignment sum", fn, fnCheckpoint, func(a *vmAccState) { a.RestSum = 0.1 }},
		{"serverless idle count past the samples", fn, fnCheckpoint, func(a *vmAccState) { a.IdleN = 1 << 40 }},
		{"serverless negative idle count", fn, fnCheckpoint, func(a *vmAccState) { a.IdleN = -1 }},
		{"serverless peak above one", fn, fnCheckpoint, func(a *vmAccState) { a.PeakMax = 42 }},
		{"serverless NaN peak", fn, fnCheckpoint, func(a *vmAccState) { a.PeakMax = math.NaN() }},
	} {
		ck := tc.ck()
		if len(ck.Shards[0].Accs) == 0 {
			t.Fatalf("%s: fixture checkpoint has no accumulators", tc.name)
		}
		if tc.mut == nil {
			if _, err := RestoreEngine(tc.tr, Options{}, ck); err != nil {
				t.Fatalf("%s: RestoreEngine refused the checkpoint: %v", tc.name, err)
			}
			continue
		}
		tc.mut(&ck.Shards[0].Accs[0])
		if _, err := RestoreEngine(tc.tr, Options{}, ck); err == nil {
			t.Errorf("RestoreEngine accepted %s", tc.name)
		}
	}
}

// TestRestoreRejectsJunkWatermark pins the companion hang: advanceLocked
// walks the watermark one step at a time toward the incoming batch step, so
// a watermark rewound below -1 (or beyond the grid) loops billions of times.
func TestRestoreRejectsJunkWatermark(t *testing.T) {
	for _, junk := range []int{-2, math.MinInt64, math.MaxInt64} {
		ck := checkpointOf(t)
		ck.Shards[0].Watermark = junk
		if _, err := RestoreEngine(microTrace(), Options{}, ck); err == nil {
			t.Errorf("RestoreEngine accepted watermark %d", junk)
		}
	}
}

// TestRestoreRejectsCorruptAutoCorrLags pins the sketch-level crash: a
// non-positive lag in a decoded AutoCorrState used to reach NewAutoCorr,
// which panics on it (correctly, for programmer-built sketches — but a
// snapshot must get an error).
func TestRestoreRejectsCorruptAutoCorrLags(t *testing.T) {
	ck := checkpointOf(t)
	if len(ck.Shards[0].Accs) == 0 {
		t.Fatal("fixture checkpoint has no accumulators")
	}
	ck.Shards[0].Accs[0].AC.Lags[0] = -1
	if _, err := RestoreEngine(microTrace(), Options{}, ck); err == nil {
		t.Fatal("RestoreEngine accepted an autocorrelation lag of -1")
	}
}

// TestRestoreRejectsForeignGeometry pins what fuzzing the section parser
// below its checksum found: decoded state whose shape differs from what this
// build constructs is refused up front, because each field sizes an
// allocation or is indexed later — the lateness bound allocates the reorder
// ring (one flipped high bit asked for 120 GB), hourly region sums are
// indexed by window hour at the next sample, live histograms are merged with
// fresh ones on the read path (Merge panics on a geometry mismatch), and the
// lag set is what the classifier looks its evidence up under.
func TestRestoreRejectsForeignGeometry(t *testing.T) {
	for name, mut := range map[string]func(*ShardCheckpoint){
		"lateness past the window": func(sc *ShardCheckpoint) { sc.MaxLatenessSteps = 1<<30 + 2 },
		"foreign lag set":          func(sc *ShardCheckpoint) { sc.Accs[0].AC.Lags[0]++ },
		"short subscription sketch": func(sc *ShardCheckpoint) {
			sc.Subs[0].Util.Counts = sc.Subs[0].Util.Counts[:subBins-1]
		},
		"shifted cloud sketch": func(sc *ShardCheckpoint) {
			cs := sc.Clouds[core.Private]
			cs.Util.Hi = 2
			sc.Clouds[core.Private] = cs
		},
		"short region hours": func(sc *ShardCheckpoint) {
			sc.Subs[0].RegionHours["r1"] = regionHourState{Sum: make([]float64, 3), N: make([]float64, 3)}
		},
	} {
		ck := checkpointOf(t)
		mut(ck.Shards[0])
		if _, err := RestoreEngine(microTrace(), Options{}, ck); err == nil {
			t.Errorf("RestoreEngine accepted a checkpoint with %s", name)
		}
	}
}

// TestRestoreRejectsUnknownGapPolicy pins that the checkpointed policy byte
// is domain-checked; an unknown value would silently behave as a fourth,
// undefined policy in the gap-fill switch.
func TestRestoreRejectsUnknownGapPolicy(t *testing.T) {
	ck := checkpointOf(t)
	ck.Shards[0].GapPolicy = GapPolicy(42)
	if _, err := RestoreEngine(microTrace(), Options{}, ck); err == nil {
		t.Fatal("RestoreEngine accepted gap policy 42")
	}
}

// TestReadCheckpointValidates pins that the byte-level reader applies the
// same domain checks as RestoreEngine, so cloudlens.go's resume path fails
// at load time with a precise error instead of at first fold.
func TestReadCheckpointValidates(t *testing.T) {
	// Serialize a negative classification cap through the writer path.
	eng := checkpointedEngine(t)
	eng.shards[0].opts.MaxClassifyPerSub = -1
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}

	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), microTrace()); err == nil {
		t.Fatal("ReadCheckpoint accepted a checkpoint with a negative classification cap")
	}
}
