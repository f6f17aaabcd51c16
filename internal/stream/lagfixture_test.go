package stream

import (
	"bytes"
	"context"
	"os"
	"slices"
	"testing"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/sim"
	"cloudlens/internal/trace"
	"cloudlens/internal/usage"
)

// lags8Trace is a hand-built serverless universe, fixed here so the fixture
// below never depends on the generator: one app of five functions over two
// days on the one-minute grid. At the fixture's kill step one function has
// more samples than the longest lag of the CPU family's set (2160), one has
// between a day and that, one is under a day, and two have retired, one of
// them qualified first.
func lags8Trace() *trace.Trace {
	g := sim.WeekGrid()
	g.Step = time.Minute
	g.N = 2 * 24 * 60
	mk := func(id int, svc string, created, deleted int, u usage.Params) trace.VM {
		return trace.VM{
			ID:           core.VMID(id),
			Subscription: "fn-lags8",
			Service:      svc,
			Cloud:        core.Public,
			Region:       "r1",
			Size:         core.VMSize{Cores: 1, MemoryGB: 1},
			CreatedStep:  created,
			DeletedStep:  deleted,
			Usage:        u,
		}
	}
	return &trace.Trace{
		Grid:   g,
		Family: core.FamilyServerless,
		VMs: []trace.VM{
			mk(0, "fn-hot", -100, g.N+500, usage.Diurnal(0.15, 0.4, 13*60, 1)),
			mk(1, "fn-warm", 0, 1200, usage.Steady(0.55, 2)),
			mk(2, "fn-burst", 700, g.N+10, usage.Bursty(0.03, 0.5, 10, 12*60, 0.35, 3)),
			mk(3, "fn-tail", 1500, g.N, usage.Spiky(0.8, 5, 4)),
			mk(4, "fn-retired", 300, 2000, usage.Diurnal(0.2, 0.3, 15*60, 5)),
		},
	}
}

const (
	lags8FixturePath = "testdata/checkpoint_v6_serverless_lags8.ckpt"
	// lags8KillStep is the last batch the fixture's engine observed, ten
	// steps past an hour. The reorder ring still holds the last three, and
	// the eight-lag ring (2160 samples) of a function present from the
	// start has wrapped.
	lags8KillStep = 2170
	// lags8Fingerprint is the knowledge base an uninterrupted replay of
	// lags8Trace finishes on.
	lags8Fingerprint = "fnv1a:4e364a7ddf89e204"
)

// TestCheckpointFixtureV6ServerlessLags8 holds the compatibility promise
// (DESIGN.md §8) for serverless files written while every serverless
// sketch tracked the CPU family's eight lags and a 2160-sample ring. The
// file must load, resume and finish on the uninterrupted run's knowledge
// base, and the engine restored from it must encode exactly as this
// build's own checkpoint at the same step. Never regenerate the file.
func TestCheckpointFixtureV6ServerlessLags8(t *testing.T) {
	tr := lags8Trace()
	ck, err := LoadCheckpointFile(lags8FixturePath, tr)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if ck.LastStep != lags8KillStep || len(ck.Shards) != 1 {
		t.Fatalf("fixture holds step %d in %d shards; want step %d in one", ck.LastStep, len(ck.Shards), lags8KillStep)
	}
	wrapped := false
	for _, st := range ck.Shards[0].Accs {
		if want := []int{60, 30, 90, 15, 45, 1440, 720, 2160}; !slices.Equal(st.AC.Lags, want) {
			t.Fatalf("fixture accumulator for VM %d tracks lags %v; the file exists to hold %v", st.Idx, st.AC.Lags, want)
		}
		wrapped = wrapped || st.AC.W.N > 2160
	}
	if !wrapped {
		t.Fatal("no fixture ring has wrapped")
	}

	if got := runPipeline(t, tr, Options{}).KB().Fingerprint(); got != lags8Fingerprint {
		t.Errorf("uninterrupted run finished on %s, pinned %s", got, lags8Fingerprint)
	}
	p, err := NewResumedPipeline(tr, Options{}, ck)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	p.Start(context.Background())
	if err := p.Wait(); err != nil {
		t.Fatalf("resumed pipeline: %v", err)
	}
	if got := p.KB().Fingerprint(); got != lags8Fingerprint {
		t.Errorf("fixture resumed to knowledge base %s, pinned %s", got, lags8Fingerprint)
	}

	ck, err = LoadCheckpointFile(lags8FixturePath, tr)
	if err != nil {
		t.Fatalf("reload fixture: %v", err)
	}
	eng, err := RestoreEngine(tr, Options{}, ck)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer eng.Abort()
	var restored bytes.Buffer
	if err := eng.WriteCheckpoint(&restored); err != nil {
		t.Fatal(err)
	}
	own := killEngineAt(t, tr, Options{}, lags8KillStep)
	if !bytes.Equal(restored.Bytes(), own.Bytes()) {
		t.Errorf("restored fixture encodes to %d bytes unlike this build's own %d-byte checkpoint at step %d",
			restored.Len(), own.Len(), lags8KillStep)
	}
}

// TestWriteServerlessLagsFixture writes the fixture once, from the build
// whose serverless sketches tracked eight lags. It refuses to replace an
// existing file: the fixture's value is that old bytes keep loading.
func TestWriteServerlessLagsFixture(t *testing.T) {
	if os.Getenv("CLOUDLENS_WRITE_CORPUS") == "" {
		t.Skip("fixture generator; set CLOUDLENS_WRITE_CORPUS=1 to write a missing fixture")
	}
	if _, err := os.Stat(lags8FixturePath); err == nil {
		t.Skipf("%s exists; it is never regenerated", lags8FixturePath)
	}
	buf := killEngineAt(t, lags8Trace(), Options{}, lags8KillStep)
	if err := os.WriteFile(lags8FixturePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
