package stream

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"

	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// replayPinFile holds one line per case: the case name and the sha256 of
// every column the replayer emitted. It is written once and never
// regenerated to make a change pass.
const replayPinFile = "testdata/replay_columns.txt"

// replayColumnsSum replays tr from start and hashes every batch in order:
// its step, then each VM index with the float32 bits of its CPU sample, then
// its creation and deletion lists, each list preceded by its length.
func replayColumnsSum(t *testing.T, tr *trace.Trace, start int) string {
	t.Helper()
	r := NewReplayer(tr, Options{StartStep: start})
	errc := make(chan error, 1)
	go func() { errc <- r.Run(context.Background()) }()
	h := sha256.New()
	var buf []byte
	u32s := func(xs []int32) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(xs)))
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	}
	for b := range r.Events() {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(b.Step))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.VM)))
		for i, vm := range b.VM {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(vm))
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(b.CPU[i]))
		}
		u32s(b.Created)
		u32s(b.Deleted)
		h.Write(buf)
		r.Recycle(b)
	}
	if err := <-errc; err != nil {
		t.Fatalf("replay: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReplayColumnsPinned pins the replayer's output columns on a
// serverless trace on the one-minute grid and on a CPU week, each replayed
// from step 0 and resumed at a step that falls inside a burst or spike
// block, so whatever the replayer caches per block must rebuild from the
// middle of one.
func TestReplayColumnsPinned(t *testing.T) {
	f, err := os.Open(replayPinFile)
	if err != nil {
		t.Fatalf("open pins: %v", err)
	}
	defer f.Close()
	pins := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 2 {
			t.Fatalf("malformed pin line %q", line)
		}
		pins[fs[0]] = fs[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read pins: %v", err)
	}

	slCfg := workload.DefaultServerlessConfig(42)
	sl, err := workload.GenerateServerless(slCfg)
	if err != nil {
		t.Fatalf("generate serverless: %v", err)
	}
	cpuCfg := workload.DefaultConfig(42)
	cpuCfg.Scale = 0.05
	cpu, err := workload.Generate(cpuCfg)
	if err != nil {
		t.Fatalf("generate cpu: %v", err)
	}
	for _, c := range []struct {
		name  string
		tr    *trace.Trace
		start int
	}{
		{"serverless/start=0", sl, 0},
		{"serverless/start=1237", sl, 1237},
		{"cpu/start=0", cpu, 0},
		{"cpu/start=1003", cpu, 1003},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.start > 0 && c.start%10 == 0 {
				t.Fatalf("start %d is a block boundary", c.start)
			}
			got := replayColumnsSum(t, c.tr, c.start)
			if want, ok := pins[c.name]; !ok || got != want {
				t.Errorf("%s: replayed columns sha256 %s, pinned %q", c.name, got, want)
			}
		})
	}
}
