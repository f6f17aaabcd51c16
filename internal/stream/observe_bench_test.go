package stream

import (
	"testing"

	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// benchObserve times Ingestor.observe alone: up to 3000 tracked VMs, one
// sample each per step over the whole grid, with no replayer, reorder ring
// or fold around it. The traced stream.ingest.observe_ns_per_sample also
// times routing and the reorder ring on a replay that shares the cores with
// trace synthesis, and spreads by a fifth between runs; this isolates the
// per-sample fold. Run with
//
//	go test -run NONE -bench Observe -benchtime 4x ./internal/stream
func benchObserve(b *testing.B, tr *trace.Trace) {
	nv := min(len(tr.VMs), 3000)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64((i*2654435761)%1000) / 1000
	}
	samples := 0
	for it := 0; it < b.N; it++ {
		b.StopTimer()
		ing := newIngestor(tr, Options{}, newIngestMetrics())
		accs := make([]*vmAcc, nv)
		for i := range accs {
			accs[i] = ing.track(int32(i))
		}
		b.StartTimer()
		for s := 0; s < tr.Grid.N; s++ {
			for i, acc := range accs {
				ing.observe(acc, s, vals[(s+i)&4095])
			}
		}
		samples += tr.Grid.N * nv
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
}

func BenchmarkObserveCPU(b *testing.B) {
	cfg := workload.DefaultConfig(29)
	cfg.Scale = 0.05
	tr, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchObserve(b, tr)
}

func BenchmarkObserveServerless(b *testing.B) {
	cfg := workload.DefaultServerlessConfig(29)
	cfg.Scale = 0.5
	tr, err := workload.GenerateServerless(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchObserve(b, tr)
}
