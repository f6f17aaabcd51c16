package stream_test

import (
	"context"
	"testing"

	"cloudlens/internal/faultgen"
	"cloudlens/internal/stream"
	"cloudlens/internal/workload"
)

// TestFoldOracleGapSkipUnderFaults holds every fold to the reference while
// the collector drops and delays samples and the ingestor leaves the holes
// unfilled: qualification drifts per VM, accumulators carry gap lists, and
// the candidate set of a subscription changes out of step with the clean
// replay's.
func TestFoldOracleGapSkipUnderFaults(t *testing.T) {
	cfg := workload.DefaultConfig(17)
	cfg.Scale = 0.05
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	spec := faultgen.Spec{Seed: 17, Drop: 0.02, Delay: 0.02, MaxDelaySteps: 3}
	for _, shards := range []int{1, 2} {
		o := stream.NewFoldOracle(t)
		opts := stream.Options{
			Shards:           shards,
			GapPolicy:        stream.GapSkip,
			MaxLatenessSteps: spec.MaxDelaySteps,
			WrapSource:       spec.Wrap(tr.Grid.N, 0, nil),
			FoldObserver:     o,
		}
		p := stream.NewPipeline(tr, opts)
		o.Bind(p.Engine())
		p.Start(context.Background())
		if err := p.Wait(); err != nil {
			t.Fatalf("shards=%d: pipeline: %v", shards, err)
		}
		if fs := p.FaultStats(); fs.GapsSkipped == 0 || fs.Reordered == 0 {
			t.Fatalf("shards=%d: fault ledger %+v; the injector left no gaps or no reordering", shards, fs)
		}
		if o.Folds == 0 || o.Profiles == 0 {
			t.Fatalf("shards=%d: oracle checked %d folds, %d profiles", shards, o.Folds, o.Profiles)
		}
		t.Logf("shards=%d: %d folds, %d profiles JSON-equal to the reference", shards, o.Folds, o.Profiles)
	}
}
