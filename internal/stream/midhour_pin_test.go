package stream

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// midHourPinFile holds one line per case: the case name, the sha256 of the
// checkpoint bytes, the resumed run's final knowledge-base fingerprint and
// the sha256 of its final live encodings. It is written once and never
// regenerated to make a change pass.
const midHourPinFile = "testdata/midhour_checkpoint.txt"

// midHourCase is one pinned mid-hour kill: a generated trace, a shard count,
// and a kill step that is not a fold boundary, so every live VM has been
// observed for several steps since the last boundary.
type midHourCase struct {
	name   string
	tr     func(t *testing.T) *trace.Trace
	shards int
	kill   func(tr *trace.Trace) int
}

func midHourCPU(t *testing.T) *trace.Trace {
	cfg := workload.DefaultConfig(29)
	cfg.Scale = 0.02
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate cpu: %v", err)
	}
	return tr
}

func midHourServerless(t *testing.T) *trace.Trace {
	cfg := workload.DefaultServerlessConfig(29)
	cfg.Scale = 0.25
	tr, err := workload.GenerateServerless(cfg)
	if err != nil {
		t.Fatalf("generate serverless: %v", err)
	}
	return tr
}

// Eleven steps past a boundary on the five-minute grid (one short of the
// next), and 53 past one on the one-minute grid (more than three blocks of
// sixteen).
func midHourCases() []midHourCase {
	cpuKill := func(tr *trace.Trace) int { return 83*tr.Grid.StepsPerHour() + 11 }
	slKill := func(tr *trace.Trace) int { return 25*tr.Grid.StepsPerHour() + 53 }
	return []midHourCase{
		{"cpu/shards=1", midHourCPU, 1, cpuKill},
		{"cpu/shards=2", midHourCPU, 2, cpuKill},
		{"serverless/shards=1", midHourServerless, 1, slKill},
		{"serverless/shards=2", midHourServerless, 2, slKill},
	}
}

func readMidHourPins(t *testing.T) map[string][3]string {
	t.Helper()
	f, err := os.Open(midHourPinFile)
	if err != nil {
		t.Fatalf("open pins: %v", err)
	}
	defer f.Close()
	pins := make(map[string][3]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 4 {
			t.Fatalf("malformed pin line %q", line)
		}
		pins[fs[0]] = [3]string{fs[1], fs[2], fs[3]}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read pins: %v", err)
	}
	return pins
}

// TestMidHourCheckpointPinned writes a checkpoint between fold boundaries,
// where the per-VM accumulators have taken samples since the last fold, and
// pins the file's bytes and what a resume from it finishes on. The file
// carries only the accumulators' settled state, so however an accumulator
// buffers work between folds, it must leave no trace here.
func TestMidHourCheckpointPinned(t *testing.T) {
	pins := readMidHourPins(t)
	traces := make(map[string]*trace.Trace)
	for _, c := range midHourCases() {
		t.Run(c.name, func(t *testing.T) {
			family := strings.SplitN(c.name, "/", 2)[0]
			tr := traces[family]
			if tr == nil {
				tr = c.tr(t)
				traces[family] = tr
			}
			kill := c.kill(tr)
			opts := Options{Shards: c.shards}
			if kill%tr.Grid.StepsPerHour() == 0 {
				t.Fatalf("kill step %d is a fold boundary", kill)
			}
			buf := killEngineAt(t, tr, opts, kill)
			ckSum := sha256.Sum256(buf.Bytes())
			ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			resumed, err := NewResumedPipeline(tr, opts, ck)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			resumed.Start(context.Background())
			if err := resumed.Wait(); err != nil {
				t.Fatalf("resumed pipeline: %v", err)
			}
			fp := resumed.KB().Fingerprint()
			ls := liveOf(resumed)
			h := sha256.New()
			for _, b := range [][]byte{ls.bodies, ls.SummaryJSON(), ls.PercentilesJSON(), ls.RegionsJSON()} {
				h.Write(b)
			}
			got := [3]string{hex.EncodeToString(ckSum[:]), fp, hex.EncodeToString(h.Sum(nil))}
			want, ok := pins[c.name]
			if !ok {
				t.Fatalf("no pin for %s; this run: %s %s %s %s (%d checkpoint bytes)",
					c.name, c.name, got[0], got[1], got[2], buf.Len())
			}
			if got != want {
				t.Errorf("%s\n got: %s\nwant: %s", c.name, fmt.Sprint(got), fmt.Sprint(want))
			}
		})
	}
}
