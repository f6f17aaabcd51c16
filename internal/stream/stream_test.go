package stream

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/sim"
	"cloudlens/internal/trace"
	"cloudlens/internal/usage"
)

// miniTrace builds a small hand-written week: two subscriptions covering
// both clouds, multi- and single-region spreads, VMs that predate the
// window, outlive it, complete inside it, and one below the short-lived
// bin. Every lifecycle edge case the replayer and ingestor handle appears
// at least once.
func miniTrace(t *testing.T) *trace.Trace {
	t.Helper()
	g := sim.WeekGrid()
	mk := func(id int, sub string, cloud core.Cloud, region, svc string,
		created, deleted int, u usage.Params) trace.VM {
		return trace.VM{
			ID:           core.VMID(id),
			Subscription: core.SubscriptionID(sub),
			Service:      svc,
			Cloud:        cloud,
			Region:       region,
			Size:         core.VMSize{Cores: 2, MemoryGB: 8},
			CreatedStep:  created,
			DeletedStep:  deleted,
			Usage:        u,
		}
	}
	n := g.N
	return &trace.Trace{
		Grid: g,
		VMs: []trace.VM{
			mk(0, "multi", core.Private, "r1", "svc-a", -100, n+500, usage.Diurnal(0.3, 0.25, 14*60, 1)),
			mk(1, "multi", core.Private, "r2", "svc-a", 0, n, usage.Diurnal(0.3, 0.25, 14*60, 2)),
			mk(2, "multi", core.Private, "r1", "svc-b", 300, n+10, usage.Stable(0.55, 3)),
			mk(3, "multi", core.Private, "r2", "svc-b", 50, 450, usage.HourlyPeak(0.2, 0.4, 10, 4)),
			mk(4, "multi", core.Private, "r1", "svc-b", 1000, 1100, usage.Irregular(0.4, 5)),
			mk(5, "multi", core.Private, "r1", "svc-b", 2000, 2003, usage.Stable(0.5, 6)),
			mk(6, "solo", core.Public, "r1", "dep-0", -5, n+1, usage.Diurnal(0.4, 0.3, 9*60, 7)),
			mk(7, "solo", core.Public, "r1", "dep-0", 0, kb.MinProfileSteps, usage.Stable(0.15, 8)),
		},
	}
}

func TestReplayerDeliversExactWindow(t *testing.T) {
	tr := miniTrace(t)
	g := tr.Grid
	r := NewReplayer(tr, Options{})
	go func() {
		if err := r.Run(context.Background()); err != nil {
			t.Errorf("replay: %v", err)
		}
	}()

	perVM := make([]int, len(tr.VMs))
	created := make(map[int32]int)
	deleted := make(map[int32]int)
	wantStep := 0
	sawTrailing := false
	for b := range r.Events() {
		if b.Step != wantStep {
			t.Fatalf("batch step = %d, want %d", b.Step, wantStep)
		}
		wantStep++
		for _, idx := range b.Created {
			created[idx] = b.Step
		}
		for _, idx := range b.Deleted {
			deleted[idx] = b.Step
		}
		if b.Step == g.N {
			sawTrailing = true
			if b.NumSamples() != 0 {
				t.Fatalf("trailing batch carries %d samples", b.NumSamples())
			}
			continue
		}
		if len(b.VM) != len(b.CPU) {
			t.Fatalf("step %d: %d VM ids against %d readings", b.Step, len(b.VM), len(b.CPU))
		}
		if len(b.Late) != 0 {
			t.Fatalf("step %d: clean replay emitted %d Late rows", b.Step, len(b.Late))
		}
		seen := make(map[int32]float32, len(b.VM))
		for i, vm := range b.VM {
			if _, dup := seen[vm]; dup {
				t.Fatalf("step %d: duplicate sample for VM %d", b.Step, vm)
			}
			seen[vm] = b.CPU[i]
			perVM[vm]++
		}
		for i := range tr.VMs {
			v := &tr.VMs[i]
			cpu, alive := seen[int32(i)]
			if alive != v.AliveAt(b.Step) {
				t.Fatalf("step %d: VM %d sampled=%v alive=%v", b.Step, i, alive, v.AliveAt(b.Step))
			}
			if alive && cpu != float32(v.Usage.At(g, b.Step)) {
				t.Fatalf("step %d: VM %d cpu=%v want %v", b.Step, i, cpu, float32(v.Usage.At(g, b.Step)))
			}
		}
	}
	if !sawTrailing {
		t.Fatal("missing trailing window-closing batch")
	}

	var wantSamples int64
	for i := range tr.VMs {
		v := &tr.VMs[i]
		from, to, _ := v.AliveRange(g.N)
		if perVM[i] != to-from {
			t.Errorf("VM %d received %d samples, want %d", i, perVM[i], to-from)
		}
		wantSamples += int64(to - from)
		if v.CreatedStep >= 0 {
			if got, ok := created[int32(i)]; !ok || got != v.CreatedStep {
				t.Errorf("VM %d creation event at %d (ok=%v), want %d", i, got, ok, v.CreatedStep)
			}
		} else if _, ok := created[int32(i)]; ok {
			t.Errorf("VM %d predates the window but got a creation event", i)
		}
		if v.DeletedStep <= g.N {
			if got, ok := deleted[int32(i)]; !ok || got != v.DeletedStep {
				t.Errorf("VM %d deletion event at %d (ok=%v), want %d", i, got, ok, v.DeletedStep)
			}
		} else if _, ok := deleted[int32(i)]; ok {
			t.Errorf("VM %d outlives the window but got a deletion event", i)
		}
	}
	if r.StepsEmitted() != int64(g.N) {
		t.Errorf("StepsEmitted = %d, want %d", r.StepsEmitted(), g.N)
	}
	if r.SamplesEmitted() != wantSamples {
		t.Errorf("SamplesEmitted = %d, want %d", r.SamplesEmitted(), wantSamples)
	}
}

func TestReplayerCancellation(t *testing.T) {
	tr := miniTrace(t)
	r := NewReplayer(tr, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- r.Run(ctx) }()

	<-r.Events() // step 0
	cancel()
	// Keep draining: a consumer that never lets the channel fill is exactly
	// the case in which only send's up-front ctx check can stop the replay.
	// Run closes the channel when it returns, which ends this loop.
	for range r.Events() {
	}
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if r.StepsEmitted() >= int64(tr.Grid.N) {
		t.Fatalf("replay ran to completion despite cancellation")
	}
}

// TestIngestorMatchesBatchExtract replays the mini trace through the full
// pipeline and checks the live knowledge base against the batch extractor
// field by field. Counting statistics must match exactly; utilization
// aggregates may drift by float32 ring rounding only.
func TestIngestorMatchesBatchExtract(t *testing.T) {
	tr := miniTrace(t)
	batch := kb.Extract(tr, kb.ExtractOptions{})

	p := NewPipeline(tr, Options{})
	p.Start(context.Background())
	if err := p.Wait(); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	live := p.KB()

	if live.Len() != batch.Len() {
		t.Fatalf("live kb has %d profiles, batch %d", live.Len(), batch.Len())
	}
	for _, sub := range []core.SubscriptionID{"multi", "solo"} {
		want, ok := batch.Get(sub)
		if !ok {
			t.Fatalf("batch kb missing %q", sub)
		}
		got, ok := live.Get(sub)
		if !ok {
			t.Fatalf("live kb missing %q", sub)
		}
		if got.Cloud != want.Cloud ||
			got.VMsObserved != want.VMsObserved ||
			got.SnapshotVMs != want.SnapshotVMs ||
			got.SnapshotCores != want.SnapshotCores {
			t.Errorf("%s inventory: got %+v want %+v", sub, got, want)
		}
		if !eqStrings(got.Regions, want.Regions) || !eqStrings(got.Services, want.Services) {
			t.Errorf("%s spread: got %v/%v want %v/%v", sub, got.Regions, got.Services, want.Regions, want.Services)
		}
		if got.MedianLifetimeMin != want.MedianLifetimeMin || got.ShortLivedShare != want.ShortLivedShare {
			t.Errorf("%s lifetime: got %v/%v want %v/%v", sub,
				got.MedianLifetimeMin, got.ShortLivedShare, want.MedianLifetimeMin, want.ShortLivedShare)
		}
		if got.DominantPattern != want.DominantPattern {
			t.Errorf("%s dominant pattern: got %v want %v", sub, got.DominantPattern, want.DominantPattern)
		}
		for _, pat := range core.Patterns() {
			if math.Abs(got.PatternShares[pat]-want.PatternShares[pat]) > 1e-12 {
				t.Errorf("%s share of %v: got %v want %v", sub, pat, got.PatternShares[pat], want.PatternShares[pat])
			}
		}
		if math.Abs(got.MeanUtilization-want.MeanUtilization) > 1e-6 {
			t.Errorf("%s mean util: got %v want %v", sub, got.MeanUtilization, want.MeanUtilization)
		}
		if got.PeakHourUTC != want.PeakHourUTC {
			t.Errorf("%s peak hour: got %d want %d", sub, got.PeakHourUTC, want.PeakHourUTC)
		}
		if math.Abs(got.RegionAgnosticScore-want.RegionAgnosticScore) > 1e-4 {
			t.Errorf("%s agnostic score: got %v want %v", sub, got.RegionAgnosticScore, want.RegionAgnosticScore)
		}
	}

	ls := liveOf(p)
	sum := ls.Summary()
	if !sum.Done || sum.Step != tr.Grid.N {
		t.Errorf("summary progress = (%v, %d), want (true, %d)", sum.Done, sum.Step, tr.Grid.N)
	}
	lp, ok := ls.Profile("multi")
	if !ok {
		t.Fatal("live profile for multi missing")
	}
	if lp.QualifiedVMs != 4 {
		t.Errorf("multi qualified VMs = %d, want 4", lp.QualifiedVMs)
	}
	if lp.UtilP50 <= 0 || lp.UtilP95 <= lp.UtilP50 {
		t.Errorf("multi quantiles implausible: p50=%v p95=%v", lp.UtilP50, lp.UtilP95)
	}
}

// TestPipelineConcurrentSnapshots hammers the pipeline's status and every
// live read, through a ReadSource bound to its engine, while ingestion
// runs; the race detector (make verify) turns any unsynchronized access
// into a failure.
func TestPipelineConcurrentSnapshots(t *testing.T) {
	tr := miniTrace(t)
	rs := NewReadSource(nil)
	p := NewPipeline(tr, Options{FoldEverySteps: 12})
	rs.Bind(p.Engine())
	p.Start(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := p.Status()
				if st.Step > st.Steps {
					t.Errorf("status step %d beyond %d", st.Step, st.Steps)
					return
				}
				ls := rs.Live()
				if sum := ls.Summary(); len(sum.Clouds) != len(core.Clouds()) {
					t.Errorf("summary has %d clouds", len(sum.Clouds))
					return
				}
				for _, lp := range ls.live {
					if lp.Samples < 0 {
						t.Errorf("negative sample count for %s", lp.Subscription)
						return
					}
				}
				ls.Profile("multi")
				p.FaultStats()
				p.ShardVitals()
				p.IngestVitals()
			}
		}()
	}

	if err := p.Wait(); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	close(stop)
	wg.Wait()

	st := p.Status()
	if !st.Done || st.Running {
		t.Errorf("final status = %+v, want done and not running", st)
	}
	if st.SamplesIngested == 0 || st.Folds == 0 {
		t.Errorf("no work recorded: %+v", st)
	}
}

func TestPipelineStopMidReplay(t *testing.T) {
	tr := miniTrace(t)
	// A slow replay guarantees Stop lands mid-flight.
	p := NewPipeline(tr, Options{Speedup: float64(tr.Grid.Step) / float64(1e6)})
	p.Start(context.Background())
	for p.Status().Step < 2 {
		time.Sleep(200 * time.Microsecond)
	}
	p.Stop()
	st := p.Status()
	if st.Running {
		t.Errorf("pipeline still running after Stop: %+v", st)
	}
	if st.Done {
		t.Errorf("cancelled pipeline reports done: %+v", st)
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
