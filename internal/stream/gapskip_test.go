package stream

import (
	"bytes"
	"math"
	"testing"

	"cloudlens/internal/classify"
	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/trace"
)

// regionHourOf resolves a subscription's per-region hour series through the
// intern tables, for tests that address state by name.
func regionHourOf(ing *Ingestor, id core.SubscriptionID, region string) *kb.RegionHours {
	ss := ing.subFor(id)
	ri, ok := ing.keys.RegionIndex(region)
	if ss == nil || !ok {
		return nil
	}
	return ss.regionHours[ri]
}

// reserialize snapshots an engine to bytes and restores it, simulating a
// mid-stream process death.
func reserialize(t *testing.T, tr *trace.Trace, opts Options, eng Engine) Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := RestoreEngine(tr, opts, ck)
	if err != nil {
		t.Fatal(err)
	}
	return resumed
}

// TestGapSkipQualifyStepAttribution pins the step-attribution bug the
// differential gauntlet flushed out: under GapSkip the autocorrelation
// ring is compacted, so the qualification flush must not assume the i-th
// retained sample sits at step from+i. Before the fix, every sample after
// a skipped hole landed one step early — in the wrong hour bucket, with
// the wrong reading chosen as the top-of-hour region sample, and with
// peak/rest slot alignment drifting off the batch classifier's grid.
func TestGapSkipQualifyStepAttribution(t *testing.T) {
	tr := microTrace()
	ing := newIngestor(tr, Options{GapPolicy: GapSkip, FoldEverySteps: 10000}, shardMetrics(0))

	// Feed VM 0 an injective series cpu(step) well past qualification
	// (kb.MinProfileSteps samples), with one reading dropped before it.
	const last = 299
	const hole = 5
	cpu := func(step int) float64 { return float64(step) / 1000 }
	for s := 0; s <= last; s++ {
		if s == hole {
			ing.ObserveBatch(batchOf(s)) // the collector lost this reading
			continue
		}
		ing.ObserveBatch(batchOf(s, sampleAt(0, s, cpu(s))))
	}
	ing.Finish()

	acc := ing.accs[0]
	if acc == nil || !acc.qualified {
		t.Fatalf("VM 0 should have qualified (%d > %d samples)", last, kb.MinProfileSteps)
	}

	// Ground truth, accumulated over the true steps in fold order.
	g := tr.Grid
	var hourly [24]float64
	var hourlyN [24]int
	hourSum := make([]float64, g.Hours())
	hourN := make([]float64, g.Hours())
	var want classify.Evidence
	rules := classify.NewRules(tr.Family, ing.stepsPerHour)
	for s := 0; s <= last; s++ {
		if s == hole {
			continue
		}
		hourly[g.HourOf(s)%24] += cpu(s)
		hourlyN[g.HourOf(s)%24]++
		if s%ing.stepsPerHour == 0 {
			hourSum[g.HourOf(s)] += cpu(s)
			hourN[g.HourOf(s)]++
		}
		rules.Add(&want, s, cpu(s))
	}

	// The autocorrelation ring retains float32 values, so flushed sums
	// carry ~1e-8 quantization per sample — far below the ~1e-3 shift a
	// single mislabeled step produces with this cpu() series.
	const eps = 1e-5
	for h := 0; h < 24; h++ {
		if math.Abs(acc.hourly[h]-hourly[h]) > eps || acc.hourlyN[h] != hourlyN[h] {
			t.Errorf("hour %d: accumulated %.6f over %d samples, want %.6f over %d",
				h, acc.hourly[h], acc.hourlyN[h], hourly[h], hourlyN[h])
		}
	}
	rh := regionHourOf(ing, "micro", "r1")
	if rh == nil {
		t.Fatal("no region-hour series for r1")
	}
	for h := 0; h < g.Hours(); h++ {
		if math.Abs(rh.Sum[h]-hourSum[h]) > eps || rh.N[h] != hourN[h] {
			t.Errorf("region hour %d: top-of-hour sample %.6f (n=%.0f), want %.6f (n=%.0f)",
				h, rh.Sum[h], rh.N[h], hourSum[h], hourN[h])
		}
	}
	if math.Abs(acc.PeakSum-want.PeakSum) > eps || acc.PeakN != want.PeakN ||
		math.Abs(acc.RestSum-want.RestSum) > eps || acc.RestN != want.RestN {
		t.Errorf("slot alignment drifted: peak %.6f/%d rest %.6f/%d, want peak %.6f/%d rest %.6f/%d",
			acc.PeakSum, acc.PeakN, acc.RestSum, acc.RestN, want.PeakSum, want.PeakN, want.RestSum, want.RestN)
	}
}

// TestGapSkipStepAttributionSurvivesResume checks the recorded holes ride
// through a checkpoint taken before qualification: a resumed GapSkip run
// must flush qualification aggregates at the same true steps as the
// uninterrupted one.
func TestGapSkipStepAttributionSurvivesResume(t *testing.T) {
	tr := microTrace()
	opts := Options{GapPolicy: GapSkip, FoldEverySteps: 10000}
	run := func(killAt int) *Ingestor {
		eng := NewEngine(tr, opts)
		for s := 0; s <= 299; s++ {
			if s == 5 || s == 17 {
				eng.ObserveBatch(batchOf(s))
				continue
			}
			eng.ObserveBatch(batchOf(s, sampleAt(0, s, float64(s)/1000)))
			if s == killAt {
				eng = reserialize(t, tr, opts, eng)
			}
		}
		eng.Finish()
		return soleShard(eng)
	}

	// Kill between the two holes, well before qualification at step ~290.
	plain, resumed := run(-1), run(11)
	a, b := plain.accs[0], resumed.accs[0]
	if !a.qualified || !b.qualified {
		t.Fatal("both runs should have qualified VM 0")
	}
	if a.hourly != b.hourly || a.hourlyN != b.hourlyN {
		t.Errorf("resumed run flushed different hour buckets:\n  plain   %v\n  resumed %v", a.hourly, b.hourly)
	}
	ra, rb := regionHourOf(plain, "micro", "r1"), regionHourOf(resumed, "micro", "r1")
	for h := range ra.Sum {
		if ra.Sum[h] != rb.Sum[h] || ra.N[h] != rb.N[h] {
			t.Fatalf("region hour %d differs after resume: %.6f/%.0f vs %.6f/%.0f",
				h, ra.Sum[h], ra.N[h], rb.Sum[h], rb.N[h])
		}
	}
}
