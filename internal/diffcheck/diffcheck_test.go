package diffcheck

import (
	"strings"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/stream"
)

// TestGauntletMatrix runs a compact slice of the default matrix — every
// default fault spec once, all three gap policies, and three mid-replay
// kill/resume trials — and requires zero divergences. The full 25-trial
// run is wired to `make diffcheck`; this keeps the oracle under the
// regular test tier.
func TestGauntletMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial differential run")
	}
	rep, err := Run(Config{Trials: 6, Seed: 20260806, Scales: []float64{0.05}, FamilyTrials: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("batch and stream diverged:\n%s", rep)
	}
	kills := 0
	for _, res := range rep.Results {
		if res.Trial.KillStep >= 0 {
			kills++
		}
	}
	if kills != 3 {
		t.Fatalf("matrix ran %d kill/resume trials, want 3", kills)
	}
}

// TestGauntletShardInvariance runs the matrix with shard counts cycled
// across trials: lossless sharded runs must match the one-shard
// reference bit for bit (the kill trials resume the sharded engine), and
// lossy runs must reconcile their fault ledgers exactly.
func TestGauntletShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial differential run")
	}
	rep, err := Run(Config{Trials: 6, Seed: 20260807, Scales: []float64{0.05}, ShardCounts: []int{2, 4, 8}, FamilyTrials: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("sharded stream diverged:\n%s", rep)
	}
	for _, res := range rep.Results {
		if res.Trial.Shards < 2 {
			t.Fatalf("trial %d ran unsharded (%d)", res.Trial.Index, res.Trial.Shards)
		}
	}
}

// TestGauntletServerlessFamily runs a compact family-only slice: serverless
// one-minute-grid trials through the default fault specs, gap policies, and
// mid-replay kill/resume. Lossless trials must hit exactly 100%
// dominant-class agreement — the family oracle — because both sides build
// the classification evidence with the same sketch.
func TestGauntletServerlessFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial differential run")
	}
	rep, err := Run(Config{Trials: -1, Seed: 20260808, FamilyTrials: 6, FamilyScales: []float64{0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("serverless batch and stream diverged:\n%s", rep)
	}
	for _, res := range rep.Results {
		if res.Trial.Family != core.FamilyServerless {
			t.Fatalf("trial %d ran the %s family, want serverless", res.Trial.Index, res.Trial.Family)
		}
		if res.Subscriptions == 0 {
			t.Fatalf("trial %d extracted no subscriptions", res.Trial.Index)
		}
	}
}

// TestComparatorDetectsMutation proves the oracle is alive: hand-corrupt
// one field of the streaming knowledge base and the comparator must name
// that exact subscription and field.
func TestComparatorDetectsMutation(t *testing.T) {
	tl := Trial{Index: 0, Seed: 7, Scale: 0.05, GapPolicy: stream.GapCarry, Faults: "off", KillStep: -1}
	res, err := runTrial(tl, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) != 0 {
		t.Fatalf("clean trial diverged: %v", res.Divergences)
	}

	// Re-run the streaming side, then corrupt one profile in place.
	cfg := Config{}.withDefaults()
	tr, batch, run, err := materializeTrial(tl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var victim core.SubscriptionID
	for _, p := range batch.List(kb.Query{MinRegionAgnosticScore: -2}) {
		if p.VMsObserved > 0 {
			victim = p.Subscription
			break
		}
	}
	lp, ok := run.eng.KB().Get(victim)
	if !ok {
		t.Fatalf("subscription %s missing from live knowledge base", victim)
	}
	mutated := *lp
	mutated.MedianLifetimeMin += 17
	run.eng.KB().Put(&mutated)

	got := compareTrial(tl, tr, batch, run, cfg.MaxDivergencesPerTrial)
	if len(got.Divergences) == 0 {
		t.Fatal("comparator missed an injected field mutation")
	}
	d := got.Divergences[0]
	if d.Subscription != victim || d.Field != "medianLifetimeMin" {
		t.Fatalf("divergence names %s/%s, want %s/medianLifetimeMin", d.Subscription, d.Field, victim)
	}
	if !strings.Contains(d.String(), string(victim)) {
		t.Fatalf("divergence string %q does not name the subscription", d)
	}
}

// TestReportString checks the report renders one verdict line per trial
// and surfaces the first divergence for replay.
func TestReportString(t *testing.T) {
	rep := &Report{Results: []TrialResult{
		{Trial: Trial{Index: 0, Seed: 1, Scale: 0.05, GapPolicy: stream.GapCarry, Faults: "off", KillStep: -1}, PatternAgreement: 1, PeakHourAgreement: 1},
		{Trial: Trial{Index: 1, Seed: 2, Scale: 0.1, GapPolicy: stream.GapSkip, Faults: "drop=0.01", KillStep: 44},
			PatternAgreement: 1, PeakHourAgreement: 1,
			Divergences: []Divergence{{Field: "vmsObserved", Batch: "3", Stream: "4"}}},
	}}
	if !rep.Failed() {
		t.Fatal("report with a divergence must fail")
	}
	s := rep.String()
	for _, want := range []string{"2 trials, 1 divergences", "trial 0", "DIVERGED (1)", "kill=step 44", "first divergence:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
