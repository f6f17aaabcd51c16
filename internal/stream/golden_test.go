package stream

import (
	"context"
	"math"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/stats"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// Golden batch-equivalence tolerances. The streaming classifier sees the
// same evidence as the batch one but validates periodicity at fixed lags
// instead of searching the periodogram, so a small disagreement band is
// expected; utilization quantiles come from fixed-resolution sketches.
const (
	// goldenMinAgreement is the minimum fraction of subscriptions whose
	// live dominant pattern matches the batch knowledge base.
	goldenMinAgreement = 0.95
	// goldenQuantileTolerance bounds |sketch − exact| for P50/P95
	// utilization, in utilization fraction (one percentage point).
	goldenQuantileTolerance = 0.01
)

// TestGoldenStreamMatchesBatchWeek replays a full generated week (seed 42)
// through the streaming pipeline and holds the live knowledge base to the
// batch extractor's output: dominant-pattern labels must agree on at least
// goldenMinAgreement of subscriptions, and per-cloud P50/P95 utilization
// must sit within one percentage point of exact quantiles.
func TestGoldenStreamMatchesBatchWeek(t *testing.T) {
	if testing.Short() {
		t.Skip("full-week replay; skipped in -short mode")
	}
	cfg := workload.DefaultConfig(42)
	cfg.Scale = 0.25
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	batch := kb.Extract(tr, kb.ExtractOptions{})

	p := NewPipeline(tr, Options{})
	p.Start(context.Background())
	if err := p.Wait(); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	live := p.KB()

	// Dominant-pattern agreement across every subscription the batch
	// extractor classified.
	all := kb.Query{MinRegionAgnosticScore: -2}
	total, agree := 0, 0
	for _, want := range batch.List(all) {
		if want.DominantPattern == core.PatternUnknown {
			continue
		}
		got, ok := live.Get(want.Subscription)
		if !ok {
			t.Errorf("live kb missing subscription %s", want.Subscription)
			continue
		}
		total++
		if got.DominantPattern == want.DominantPattern {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("batch kb classified no subscriptions")
	}
	frac := float64(agree) / float64(total)
	t.Logf("dominant-pattern agreement: %d/%d = %.4f", agree, total, frac)
	if frac < goldenMinAgreement {
		t.Errorf("pattern agreement %.4f below %v", frac, goldenMinAgreement)
	}

	// Per-cloud utilization quantiles: sketch estimates vs exact order
	// statistics over the same sample population (every sample of every
	// profiled, day-plus VM).
	sum := liveOf(p).Summary()
	for _, cloud := range core.Clouds() {
		exact := exactCloudQuantiles(tr, cloud)
		cl := sum.Clouds[cloud.String()]
		if d := math.Abs(cl.UtilP50 - exact[0]); d > goldenQuantileTolerance {
			t.Errorf("%v P50: sketch %.4f vs exact %.4f (Δ=%.4f)", cloud, cl.UtilP50, exact[0], d)
		}
		if d := math.Abs(cl.UtilP95 - exact[1]); d > goldenQuantileTolerance {
			t.Errorf("%v P95: sketch %.4f vs exact %.4f (Δ=%.4f)", cloud, cl.UtilP95, exact[1], d)
		}
		t.Logf("%v quantiles: sketch (%.4f, %.4f) exact (%.4f, %.4f)",
			cloud, cl.UtilP50, cl.UtilP95, exact[0], exact[1])
	}
}

// exactCloudQuantiles materializes every profiled VM's in-window series and
// returns the exact (P50, P95) of the pooled samples.
func exactCloudQuantiles(tr *trace.Trace, cloud core.Cloud) [2]float64 {
	var samples []float64
	var buf []float64
	for i := range tr.VMs {
		v := &tr.VMs[i]
		if v.Cloud != cloud {
			continue
		}
		from, to, ok := v.AliveRange(tr.Grid.N)
		if !ok || to-from < kb.MinProfileStepsFor(tr.Grid) {
			continue
		}
		buf = v.Usage.SeriesInto(buf, tr.Grid, from, to)
		samples = append(samples, buf...)
	}
	q := stats.QuantilesOf(samples, 0.5, 0.95)
	return [2]float64{q[0], q[1]}
}
