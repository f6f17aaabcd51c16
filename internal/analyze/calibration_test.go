package analyze

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// sharedTrace is generated once for the whole test package: the analyses
// are read-only over it. Set CLOUDLENS_TEST_SEED to re-run the whole
// reproduction suite against a different synthetic week. The assertions
// hold at the default seed 42, not at every seed: over seeds 1–13, 42, 977
// and 2024 the suite was red on 8 of the 16. TestRemovalsMirrorCreations
// failed on seeds 1, 4, 5, 6, 8, 11 and 2024, TestFig5dPatternShares on 2
// and 11, and TestFig7bCrossRegionCorrelation and TestAllFourInsightsHold
// on 11. `make seeds` prints the pass/fail table over a fixed 20-seed list.
var (
	sharedOnce  sync.Once
	sharedTr    *trace.Trace
	sharedTrErr error
)

func testSeed() uint64 {
	if s := os.Getenv("CLOUDLENS_TEST_SEED"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			return v
		}
	}
	return 42
}

func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	sharedOnce.Do(func() {
		sharedTr, sharedTrErr = workload.Generate(workload.DefaultConfig(testSeed()))
	})
	if sharedTrErr != nil {
		t.Fatalf("generate shared trace: %v", sharedTrErr)
	}
	return sharedTr
}

// TestCalibrationReport logs every figure's headline statistics next to the
// paper's values. The hard assertions live in the individual figure tests;
// this one is the at-a-glance calibration dashboard.
func TestCalibrationReport(t *testing.T) {
	tr := testTrace(t)

	f1a := ComputeFig1a(tr)
	t.Logf("Fig1a VMs/sub median: private=%.1f public=%.1f (paper: private larger)",
		f1a.MedianVMsPerSub.Private, f1a.MedianVMsPerSub.Public)

	f1b := ComputeFig1b(tr)
	t.Logf("Fig1b subs/cluster median: private=%.1f public=%.1f ratio=%.1fx (paper ~20x)",
		f1b.Box.Private.Median, f1b.Box.Public.Median, f1b.MedianRatio)

	f2 := ComputeFig2(tr)
	t.Logf("Fig2 extreme-size share: private=%.3f public=%.3f distinct sizes: %d vs %d",
		f2.ExtremeShare.Private, f2.ExtremeShare.Public,
		f2.DistinctSizes.Private, f2.DistinctSizes.Public)

	f3a := ComputeFig3a(tr)
	t.Logf("Fig3a shortest-bin share: private=%.2f (paper 0.49) public=%.2f (paper 0.81); n=%d/%d",
		f3a.ShortestBinShare.Private, f3a.ShortestBinShare.Public,
		f3a.Counted.Private, f3a.Counted.Public)

	f3b := ComputeFig3b(tr, "")
	t.Logf("Fig3b spike ratio (max/median hourly count): private=%.2f public=%.2f",
		f3b.SpikeRatio.Private, f3b.SpikeRatio.Public)

	f3c := ComputeFig3c(tr, "")
	t.Logf("Fig3c creation CV at us-east: private=%.2f public=%.2f",
		f3c.CV.Private, f3c.CV.Public)

	f3d := ComputeFig3d(tr)
	t.Logf("Fig3d creation CV across regions, median: private=%.2f public=%.2f",
		f3d.Box.Private.Median, f3d.Box.Public.Median)

	f4a := ComputeFig4a(tr)
	t.Logf("Fig4a single-region subs: private=%.2f public=%.2f mean regions: %.2f vs %.2f",
		f4a.SingleRegionShare.Private, f4a.SingleRegionShare.Public,
		f4a.MeanRegions.Private, f4a.MeanRegions.Public)

	f4b := ComputeFig4b(tr)
	t.Logf("Fig4b single-region core share: private=%.2f (paper ~0.40) public=%.2f (paper ~0.70)",
		f4b.SingleRegionCoreShare.Private, f4b.SingleRegionCoreShare.Public)

	f5d := ComputeFig5d(tr)
	for _, cloud := range core.Clouds() {
		share := f5d.Share.Get(cloud)
		t.Logf("Fig5d %s shares: diurnal=%.2f stable=%.2f irregular=%.2f hourly=%.2f unknown=%.2f (n=%d)",
			cloud,
			share[core.PatternDiurnal], share[core.PatternStable],
			share[core.PatternIrregular], share[core.PatternHourlyPeak],
			share[core.PatternUnknown], f5d.Classified.Get(cloud))
	}

	f6w := ComputeFig6Weekly(tr)
	t.Logf("Fig6 weekly maxP75: private=%.2f public=%.2f (paper <0.30); weekend dip: %.2f vs %.2f",
		f6w.MaxP75.Private, f6w.MaxP75.Public,
		f6w.WeekendDip.Private, f6w.WeekendDip.Public)

	f6d := ComputeFig6Daily(tr)
	t.Logf("Fig6 daily swing of p50: private=%.2f public=%.2f (paper: private working-hours, public ~constant)",
		f6d.DailySwing.Private, f6d.DailySwing.Public)

	f7a := ComputeFig7a(tr)
	t.Logf("Fig7a VM-node correlation median: private=%.2f (paper 0.55) public=%.2f (paper 0.02); n=%d/%d",
		f7a.MedianCorrelation.Private, f7a.MedianCorrelation.Public,
		f7a.VMs.Private, f7a.VMs.Public)

	f7b := ComputeFig7b(tr)
	t.Logf("Fig7b cross-region correlation median: private=%.2f public=%.2f; pairs=%d/%d",
		f7b.MedianCorrelation.Private, f7b.MedianCorrelation.Public,
		f7b.Pairs.Private, f7b.Pairs.Public)

	f7c := ComputeFig7c(tr, "")
	t.Logf("Fig7c ServiceX regions=%v peak spread=%d min (paper: aligned peaks)",
		f7c.Regions, f7c.PeakStepSpreadMin)
}
