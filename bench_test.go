package cloudlens

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Figures 1-7 plus the quantified pilots of Sections III-B and
// IV-B). Each benchmark runs the corresponding analysis over a shared
// default trace and records the headline statistic via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation in one run. EXPERIMENTS.md records the
// paper-vs-measured comparison for each benchmark.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cloudlens/internal/analyze"
	"cloudlens/internal/core"
	"cloudlens/internal/deferral"
	"cloudlens/internal/kb"
	"cloudlens/internal/oversub"
	"cloudlens/internal/spot"
)

var (
	benchOnce  sync.Once
	benchTrace *Trace
	benchErr   error
)

// benchTraceOrSkip generates the shared benchmark trace once.
func benchTraceOrSkip(b *testing.B) *Trace {
	b.Helper()
	benchOnce.Do(func() {
		benchTrace, benchErr = GenerateDefault(42)
	})
	if benchErr != nil {
		b.Fatalf("generate trace: %v", benchErr)
	}
	return benchTrace
}

// BenchmarkGenerateTrace measures end-to-end synthesis of the default
// universe (both clouds, one week).
func BenchmarkGenerateTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := GenerateDefault(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.VMs) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkFig1aVMsPerSubscription(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig1a
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig1a(tr)
	}
	b.ReportMetric(last.MedianVMsPerSub.Private, "private-median-vms/sub")
	b.ReportMetric(last.MedianVMsPerSub.Public, "public-median-vms/sub")
}

func BenchmarkFig1bSubscriptionsPerCluster(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig1b
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig1b(tr)
	}
	b.ReportMetric(last.MedianRatio, "public/private-median-ratio")
}

func BenchmarkFig2VMSizeHeatmap(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig2(tr)
	}
	b.ReportMetric(last.ExtremeShare.Public, "public-extreme-size-share")
}

func BenchmarkFig3aVMLifetimes(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig3a
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig3a(tr)
	}
	b.ReportMetric(last.ShortestBinShare.Private, "private-shortest-bin")
	b.ReportMetric(last.ShortestBinShare.Public, "public-shortest-bin")
}

func BenchmarkFig3bVMCounts(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig3b
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig3b(tr, "")
	}
	b.ReportMetric(last.SpikeRatio.Private, "private-spike-ratio")
}

func BenchmarkFig3cVMCreations(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig3c
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig3c(tr, "")
	}
	b.ReportMetric(last.CV.Private, "private-creation-cv")
	b.ReportMetric(last.CV.Public, "public-creation-cv")
}

func BenchmarkFig3dCreationCV(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig3d
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig3d(tr)
	}
	b.ReportMetric(last.Box.Private.Median, "private-median-cv")
	b.ReportMetric(last.Box.Public.Median, "public-median-cv")
}

func BenchmarkFig4aRegionsPerSubscription(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig4a
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig4a(tr)
	}
	b.ReportMetric(last.SingleRegionShare.Private, "private-single-region")
	b.ReportMetric(last.SingleRegionShare.Public, "public-single-region")
}

func BenchmarkFig4bRegionsCoreWeighted(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig4b
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig4b(tr)
	}
	b.ReportMetric(last.SingleRegionCoreShare.Private, "private-single-region-cores")
	b.ReportMetric(last.SingleRegionCoreShare.Public, "public-single-region-cores")
}

func BenchmarkFig5PatternSamples(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig5Samples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig5Samples(tr)
	}
	b.ReportMetric(float64(len(last.Samples)), "patterns-found")
}

func BenchmarkFig5dPatternShares(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig5d
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig5d(tr)
	}
	b.ReportMetric(last.Share.Private[core.PatternDiurnal], "private-diurnal-share")
	b.ReportMetric(last.Share.Public[core.PatternStable], "public-stable-share")
}

func BenchmarkFig6WeeklyUtilization(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig6Weekly
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig6Weekly(tr)
	}
	b.ReportMetric(last.MaxP75.Private, "private-max-p75")
	b.ReportMetric(last.MaxP75.Public, "public-max-p75")
}

func BenchmarkFig6DailyUtilization(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig6Daily
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig6Daily(tr)
	}
	b.ReportMetric(last.DailySwing.Private, "private-daily-swing")
	b.ReportMetric(last.DailySwing.Public, "public-daily-swing")
}

func BenchmarkFig7aNodeCorrelation(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig7a
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig7a(tr)
	}
	b.ReportMetric(last.MedianCorrelation.Private, "private-median-corr")
	b.ReportMetric(last.MedianCorrelation.Public, "public-median-corr")
}

func BenchmarkFig7bRegionCorrelation(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig7b
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig7b(tr)
	}
	b.ReportMetric(last.MedianCorrelation.Private, "private-median-corr")
	b.ReportMetric(last.MedianCorrelation.Public, "public-median-corr")
}

func BenchmarkFig7cServiceX(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last analyze.Fig7c
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = analyze.ComputeFig7c(tr, "")
	}
	b.ReportMetric(float64(last.PeakStepSpreadMin), "peak-spread-min")
}

// BenchmarkOversubscriptionSweep regenerates the Section III-B implication:
// chance-constrained over-subscription improving utilization by 20%-86%
// depending on the safety level.
func BenchmarkOversubscriptionSweep(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last oversub.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		last, err = oversub.Run(tr, oversub.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := last.GainRange()
	b.ReportMetric(100*lo, "min-gain-%")
	b.ReportMetric(100*hi, "max-gain-%")
}

// BenchmarkRegionShiftPilot regenerates the Section IV-B Canada pilot.
func BenchmarkRegionShiftPilot(b *testing.B) {
	tr := benchTraceOrSkip(b)
	store := kb.Extract(tr, kb.ExtractOptions{})
	var last BalanceOutcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		last, err = RunRegionBalance(tr, store, "canada-a", "canada-b")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*last.SourceBefore.UtilizationRate, "source-util-before-%")
	b.ReportMetric(100*last.SourceAfter.UtilizationRate, "source-util-after-%")
	b.ReportMetric(100*last.SourceBefore.UnderutilizedShare, "source-under-before-%")
	b.ReportMetric(100*last.SourceAfter.UnderutilizedShare, "source-under-after-%")
}

// BenchmarkSpotHarvest regenerates the spot-VM implication of Section III-B.
func BenchmarkSpotHarvest(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last spot.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		last, err = spot.Run(tr, spot.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(last.WithSpotUtilization-last.OnDemandUtilization), "harvested-util-%")
	b.ReportMetric(last.Predictor.Correlation, "predictor-corr")
}

// BenchmarkDeferralScheduling regenerates the Section IV-A implication:
// deferrable workloads scheduled into the private cloud's valley hours.
func BenchmarkDeferralScheduling(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last deferral.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		last, err = deferral.Run(tr, deferral.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(last.DeferrableVMs), "deferred-jobs")
	b.ReportMetric(last.ValleyFillAfter-last.ValleyFillBefore, "valley-fill-gain")
}

// BenchmarkKnowledgeBaseExtract measures building the Section V workload
// knowledge base from a full trace.
func BenchmarkKnowledgeBaseExtract(b *testing.B) {
	tr := benchTraceOrSkip(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := kb.Extract(tr, kb.ExtractOptions{})
		if store.Len() == 0 {
			b.Fatal("empty knowledge base")
		}
	}
}

// BenchmarkCharacterizeAll runs the complete figure pipeline end to end.
func BenchmarkCharacterizeAll(b *testing.B) {
	tr := benchTraceOrSkip(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := Characterize(tr)
		if ch.Fig1a.Subscriptions.Private == 0 {
			b.Fatal("empty characterization")
		}
	}
}

// BenchmarkCharacterizeEndToEnd is the performance-tracking benchmark for
// the parallel pipeline: trace in, all sixteen figures out, with time and
// allocation counts reported. Unlike BenchmarkCharacterizeAll (which feeds
// the evaluation tables), this one always reports allocations so
// regressions in the shared series cache or the worker fan-out are caught
// by plain `go test -bench=CharacterizeEndToEnd`.
func BenchmarkCharacterizeEndToEnd(b *testing.B) {
	tr := benchTraceOrSkip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := Characterize(tr)
		if ch.Fig1a.Subscriptions.Private == 0 {
			b.Fatal("empty characterization")
		}
	}
}

// BenchmarkKBExtract tracks knowledge-base extraction time and allocations
// (the parallel per-subscription profiler with per-worker scratch buffers).
func BenchmarkKBExtract(b *testing.B) {
	tr := benchTraceOrSkip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := kb.Extract(tr, kb.ExtractOptions{})
		if store.Len() == 0 {
			b.Fatal("empty knowledge base")
		}
	}
}

// BenchmarkStreamIngest tracks streaming-ingestion throughput: the full
// default week replayed (unpaced) through the live pipeline, folding every
// hour. Reports end-to-end samples/sec and the per-sample allocation rate
// of the hot path alongside the standard per-op counters.
func BenchmarkStreamIngest(b *testing.B) {
	benchStreamIngest(b, StreamOptions{})
}

// BenchmarkStreamIngestShards sweeps the ingestion shard count over the
// same replay (`make bench-shards`). The knowledge base is bit-exact
// across counts, so the sub-benchmarks differ only in samples/sec; the
// speedup over shards=1 is the scaling table recorded in
// BENCH_stream.json.
func BenchmarkStreamIngestShards(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchStreamIngest(b, StreamOptions{Shards: n})
		})
	}
}

func benchStreamIngest(b *testing.B, opts StreamOptions) {
	tr := benchTraceOrSkip(b)
	b.ReportAllocs()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var samples int64
	for i := 0; i < b.N; i++ {
		p := NewStreamPipeline(tr, opts)
		p.Start(context.Background())
		if err := p.Wait(); err != nil {
			b.Fatal(err)
		}
		st := p.Status()
		if !st.Done || st.SamplesIngested == 0 {
			b.Fatalf("replay did not finish: %+v", st)
		}
		samples += st.SamplesIngested
	}
	b.StopTimer()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(samples)/sec, "samples/sec")
	}
	if samples > 0 {
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(samples), "allocs/sample")
	}
}

// BenchmarkSpotMixture regenerates the dynamic spot/on-demand mixture
// comparison (the paper's cited Snape-style scheduling).
func BenchmarkSpotMixture(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last []spot.MixtureResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		last, err = spot.RunMixture(tr, spot.MixtureOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range last {
		if r.Policy == spot.PolicyDynamicMixture {
			b.ReportMetric(r.Cost, "mixture-cost-vmh")
		}
		if r.Policy == spot.PolicyOnDemand {
			b.ReportMetric(r.Cost, "ondemand-cost-vmh")
		}
	}
}

// BenchmarkPreProvisioning regenerates the hourly-peak predictive
// pre-provisioning comparison (Section IV-A implication).
func BenchmarkPreProvisioning(b *testing.B) {
	tr := benchTraceOrSkip(b)
	store := kb.Extract(tr, kb.ExtractOptions{})
	var last ProvisionResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		last, err = RunPreProvisioning(tr, store, ProvisionOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Reactive.ThrottledCoreHours, "reactive-throttled-ch")
	b.ReportMetric(last.Predictive.ThrottledCoreHours, "predictive-throttled-ch")
}

// BenchmarkRemovalsAnalysis regenerates the removal-behaviour companion of
// Figure 3(c).
func BenchmarkRemovalsAnalysis(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last Removals
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = ComputeRemovals(tr, "")
	}
	b.ReportMetric(last.CV.Private, "private-removal-cv")
	b.ReportMetric(last.CV.Public, "public-removal-cv")
}

// BenchmarkAblationHomogeneity regenerates the node-correlation ablation:
// the Figure 7(a) gap must collapse when private workload homogeneity is
// removed.
func BenchmarkAblationHomogeneity(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(42)
		cfg.Scale = 0.5
		cfg.Private.IndependentVMPatterns = true
		cfg.Private.PatternWeights = cfg.Public.PatternWeights
		tr, err := Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		med = analyze.ComputeFig7a(tr).MedianCorrelation.Private
	}
	b.ReportMetric(med, "ablated-private-median-corr")
}

// BenchmarkAllocFailPrediction regenerates the workload-aware allocation-
// failure prediction experiment (Section III-B implication).
func BenchmarkAllocFailPrediction(b *testing.B) {
	tr := benchTraceOrSkip(b)
	var last AllocFailResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		last, err = RunAllocFailPrediction(tr, AllocFailOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Model.Accuracy, "model-accuracy")
	b.ReportMetric(last.Model.Precision, "model-precision")
	b.ReportMetric(last.Baseline.Precision, "baseline-precision")
}
