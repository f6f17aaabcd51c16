package balance

import (
	"sync"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

var (
	trOnce  sync.Once
	tr      *trace.Trace
	store   *kb.Snapshot
	trErr   error
	outcome Outcome
)

func sharedPilot(t *testing.T) (*trace.Trace, *kb.Snapshot, Outcome) {
	t.Helper()
	trOnce.Do(func() {
		tr, trErr = workload.Generate(workload.DefaultConfig(35))
		if trErr != nil {
			return
		}
		store = kb.Extract(tr, kb.ExtractOptions{})
		outcome, trErr = Run(tr, store, "canada-a", "canada-b")
	})
	if trErr != nil {
		t.Fatalf("pilot setup: %v", trErr)
	}
	return tr, store, outcome
}

func TestRecommendPicksServiceX(t *testing.T) {
	_, _, out := sharedPilot(t)
	if out.Plan.Service != workload.ServiceXName {
		t.Fatalf("recommended %q, want %q", out.Plan.Service, workload.ServiceXName)
	}
	if out.Plan.AgnosticScore < kb.RegionAgnosticThreshold {
		t.Fatalf("agnostic score %.2f below threshold", out.Plan.AgnosticScore)
	}
	if out.Plan.VMs == 0 || out.Plan.Cores == 0 {
		t.Fatalf("empty plan: %+v", out.Plan)
	}
}

func TestPilotMatchesPaperShape(t *testing.T) {
	_, _, out := sharedPilot(t)
	// Source region: both health metrics must decrease, as in the paper
	// (utilization rate 42%->37%, underutilized cores 23%->16%).
	if out.SourceAfter.UtilizationRate >= out.SourceBefore.UtilizationRate {
		t.Fatalf("source utilization did not drop: %.3f -> %.3f",
			out.SourceBefore.UtilizationRate, out.SourceAfter.UtilizationRate)
	}
	if out.SourceAfter.UnderutilizedShare >= out.SourceBefore.UnderutilizedShare {
		t.Fatalf("source underutilized share did not drop: %.3f -> %.3f",
			out.SourceBefore.UnderutilizedShare, out.SourceAfter.UnderutilizedShare)
	}
	// Destination gains exactly what the source lost.
	srcDelta := out.SourceBefore.AllocatedCores - out.SourceAfter.AllocatedCores
	dstDelta := out.DestAfter.AllocatedCores - out.DestBefore.AllocatedCores
	if srcDelta <= 0 {
		t.Fatal("no cores moved")
	}
	if diff := srcDelta - dstDelta; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("moved cores not conserved: src -%.1f, dst +%.1f", srcDelta, dstDelta)
	}
	if !out.HealthImproved() {
		t.Fatal("pilot did not improve source health")
	}
	// The source was "hot" relative to the destination.
	if out.SourceBefore.UtilizationRate <= out.DestBefore.UtilizationRate {
		t.Fatal("source not hotter than destination before the shift")
	}
}

func TestMetricsSanity(t *testing.T) {
	trc, _, _ := sharedPilot(t)
	m := Metrics(trc, core.Private, "canada-a", nil, "")
	if m.PhysicalCores == 0 {
		t.Fatal("no physical cores")
	}
	if m.UtilizationRate <= 0 || m.UtilizationRate > 1 {
		t.Fatalf("utilization rate %v out of (0,1]", m.UtilizationRate)
	}
	if m.UnderutilizedShare < 0 || m.UnderutilizedShare > 1 {
		t.Fatalf("underutilized share %v out of [0,1]", m.UnderutilizedShare)
	}
	ghost := Metrics(trc, core.Private, "atlantis", nil, "")
	if ghost.PhysicalCores != 0 || ghost.UtilizationRate != 0 {
		t.Fatalf("metrics of unknown region non-zero: %+v", ghost)
	}
}

func TestRecommendErrors(t *testing.T) {
	trc, st, _ := sharedPilot(t)
	if _, err := Recommend(trc, st, "atlantis", "canada-b"); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := Recommend(trc, st, "canada-a", "atlantis"); err == nil {
		t.Fatal("unknown destination accepted")
	}
	// A region with no region-agnostic workloads must be rejected: the
	// public-heavy eu-north has no qualifying private service.
	if _, err := Recommend(trc, kb.SnapshotOf(0, 0), "canada-a", "canada-b"); err == nil {
		t.Fatal("empty knowledge base produced a recommendation")
	}
}

func TestApplyIsPure(t *testing.T) {
	trc, _, out := sharedPilot(t)
	// Apply must not mutate the trace itself: the moved VMs keep their
	// original region labels in the trace records.
	movedCount := 0
	for i := range trc.VMs {
		v := &trc.VMs[i]
		if v.Service == out.Plan.Service && v.Region == "canada-b" {
			movedCount++
		}
	}
	if movedCount != 0 {
		t.Fatalf("Apply mutated the trace: %d ServiceX VMs relabeled", movedCount)
	}
	if len(out.Moved) != out.Plan.VMs && len(out.Moved) < out.Plan.VMs {
		t.Fatalf("moved list %d smaller than plan %d", len(out.Moved), out.Plan.VMs)
	}
}
