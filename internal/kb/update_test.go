package kb

import (
	"math"
	"reflect"
	"testing"

	"cloudlens/internal/core"
)

func mkProfile(id string, util float64) *Profile {
	return &Profile{
		Subscription:        core.SubscriptionID(id),
		Cloud:               core.Private,
		Services:            []string{"svc-" + id},
		Regions:             []string{"us-east"},
		VMsObserved:         10,
		SnapshotVMs:         8,
		SnapshotCores:       32,
		MedianLifetimeMin:   100,
		ShortLivedShare:     0.4,
		MeanUtilization:     util,
		PatternShares:       map[core.Pattern]float64{core.PatternDiurnal: 0.8, core.PatternStable: 0.2},
		DominantPattern:     core.PatternDiurnal,
		RegionAgnosticScore: -1,
		PeakHourUTC:         14,
	}
}

func TestMergeInsertsNewSubscriptions(t *testing.T) {
	s := Merge(SnapshotOf(0, 0), SnapshotOf(0, 0, mkProfile("a", 0.2)), MergeOptions{})
	if s.Len() != 1 {
		t.Fatalf("store has %d profiles", s.Len())
	}
	got, _ := s.Get("a")
	if got.MeanUtilization != 0.2 {
		t.Fatalf("inserted profile altered: %v", got.MeanUtilization)
	}
}

func TestMergeRetainsMissingSubscriptions(t *testing.T) {
	s := Merge(SnapshotOf(0, 0, mkProfile("old", 0.3)), SnapshotOf(0, 0), MergeOptions{})
	if _, ok := s.Get("old"); !ok {
		t.Fatal("missing week erased existing knowledge")
	}
}

func TestMergeBlendsStatistics(t *testing.T) {
	newer := mkProfile("a", 0.4)
	newer.Regions = []string{"us-west"}
	newer.MedianLifetimeMin = 200
	s := Merge(SnapshotOf(0, 0, mkProfile("a", 0.2)), SnapshotOf(0, 0, newer), MergeOptions{NewWeight: 0.5})
	got, _ := s.Get("a")
	if math.Abs(got.MeanUtilization-0.3) > 1e-12 {
		t.Fatalf("blended utilization = %v, want 0.3", got.MeanUtilization)
	}
	if math.Abs(got.MedianLifetimeMin-150) > 1e-12 {
		t.Fatalf("blended lifetime = %v, want 150", got.MedianLifetimeMin)
	}
	// Regions union.
	if len(got.Regions) != 2 || got.Regions[0] != "us-east" || got.Regions[1] != "us-west" {
		t.Fatalf("regions = %v", got.Regions)
	}
	// Counters describe the latest window.
	if got.VMsObserved != newer.VMsObserved {
		t.Fatal("counters not refreshed")
	}
}

func TestMergeSlowEWMAResistsNoise(t *testing.T) {
	// One anomalous week, at the default weight 0.3.
	s := Merge(SnapshotOf(0, 0, mkProfile("a", 0.2)), SnapshotOf(0, 0, mkProfile("a", 0.9)), MergeOptions{})
	got, _ := s.Get("a")
	if got.MeanUtilization > 0.45 {
		t.Fatalf("one noisy week moved utilization to %v", got.MeanUtilization)
	}
}

func TestMergeRegionAgnosticScoreRules(t *testing.T) {
	tests := []struct {
		name      string
		oldScore  float64
		newScore  float64
		wantRange [2]float64
	}{
		{name: "both defined", oldScore: 0.8, newScore: 0.4, wantRange: [2]float64{0.6, 0.7}},
		{name: "old unknown", oldScore: -1, newScore: 0.9, wantRange: [2]float64{0.9, 0.9}},
		{name: "new unknown", oldScore: 0.7, newScore: -1, wantRange: [2]float64{0.7, 0.7}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p1 := mkProfile("a", 0.2)
			p1.RegionAgnosticScore = tt.oldScore
			p2 := mkProfile("a", 0.2)
			p2.RegionAgnosticScore = tt.newScore
			s := Merge(SnapshotOf(0, 0, p1), SnapshotOf(0, 0, p2), MergeOptions{NewWeight: 0.5})
			got, _ := s.Get("a")
			if got.RegionAgnosticScore < tt.wantRange[0] || got.RegionAgnosticScore > tt.wantRange[1] {
				t.Fatalf("score = %v, want in %v", got.RegionAgnosticScore, tt.wantRange)
			}
		})
	}
}

func TestMergeDominantPatternShifts(t *testing.T) {
	shifted := mkProfile("a", 0.2)
	shifted.PatternShares = map[core.Pattern]float64{core.PatternStable: 0.9, core.PatternDiurnal: 0.1}
	shifted.DominantPattern = core.PatternStable
	// A heavy update weight flips the dominant pattern.
	s := Merge(SnapshotOf(0, 0, mkProfile("a", 0.2)), SnapshotOf(0, 0, shifted), MergeOptions{NewWeight: 0.9})
	got, _ := s.Get("a")
	if got.DominantPattern != core.PatternStable {
		t.Fatalf("dominant pattern = %v, want stable", got.DominantPattern)
	}

	// A tie goes to the pattern that comes first in the family's taxonomy,
	// as in Extract, whatever order the share map iterates in: diurnal
	// before stable for CPU, bursty before diurnal for serverless.
	for _, tc := range []struct {
		family core.Family
		shares map[core.Pattern]float64
		want   core.Pattern
	}{
		{core.FamilyCPU, map[core.Pattern]float64{core.PatternStable: 0.5, core.PatternDiurnal: 0.5}, core.PatternDiurnal},
		{core.FamilyServerless, map[core.Pattern]float64{core.PatternDiurnal: 0.5, core.PatternBursty: 0.5}, core.PatternBursty},
	} {
		tied := mkProfile("a", 0.2)
		tied.Family, tied.PatternShares, tied.DominantPattern = tc.family, tc.shares, tc.want
		for range 50 {
			got, _ := Merge(SnapshotOf(0, 0, tied), SnapshotOf(0, 0, tied), MergeOptions{}).Get("a")
			if got.DominantPattern != tc.want || got.Family != tc.family {
				t.Fatalf("tied merge: dominant %v of family %v, want %v of %v",
					got.DominantPattern, got.Family, tc.want, tc.family)
			}
		}
	}
}

// TestMergeBlendsSharesOverTheUnion: a pattern missing from one week reads
// as a share of 0 there, so the blended shares still sum to 1, while a week
// that classified no VM is no observation of the shares.
func TestMergeBlendsSharesOverTheUnion(t *testing.T) {
	type shares = map[core.Pattern]float64
	diurnal, stable := core.PatternDiurnal, core.PatternStable
	for _, tc := range []struct {
		name         string
		prev, next   shares
		want         shares
		wantDominant core.Pattern
	}{
		{"shifted", shares{diurnal: 1}, shares{stable: 1}, shares{diurnal: 0.1, stable: 0.9}, stable},
		{"prev unclassified", shares{}, shares{stable: 1}, shares{stable: 1}, stable},
		{"next unclassified", shares{diurnal: 0.25, stable: 0.75}, shares{},
			shares{diurnal: 0.25, stable: 0.75}, stable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			older, newer := mkProfile("a", 0.2), mkProfile("a", 0.2)
			older.PatternShares, newer.PatternShares = tc.prev, tc.next
			got, _ := Merge(SnapshotOf(0, 0, older), SnapshotOf(0, 0, newer), MergeOptions{NewWeight: 0.9}).Get("a")
			if len(got.PatternShares) != len(tc.want) {
				t.Fatalf("shares %v, want %v", got.PatternShares, tc.want)
			}
			sum := 0.0
			for p, v := range got.PatternShares {
				if math.Abs(v-tc.want[p]) > 1e-12 {
					t.Fatalf("shares %v, want %v", got.PatternShares, tc.want)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("shares %v sum to %v, want 1", got.PatternShares, sum)
			}
			if got.DominantPattern != tc.wantDominant {
				t.Fatalf("dominant %v, want %v", got.DominantPattern, tc.wantDominant)
			}
		})
	}
}

func TestMergeWeekOverWeekFromTraces(t *testing.T) {
	_, cpu := sharedKB(t)
	_, serverless := sharedServerlessKB(t)
	// Blending a week into itself must be a fixed point: the family and the
	// dominant pattern survive exactly, utilization up to rounding.
	for _, week1 := range []*Snapshot{cpu, serverless} {
		merged := Merge(SnapshotOf(0, 0), week1, MergeOptions{})
		merged = Merge(merged, week1, MergeOptions{})
		if merged.Len() != week1.Len() {
			t.Fatalf("idempotent merge changed size: %d vs %d", merged.Len(), week1.Len())
		}
		for i, p1 := range week1.Profiles() {
			p2 := merged.Profiles()[i]
			if p2.Subscription != p1.Subscription {
				t.Fatalf("profile %d: %s, want %s", i, p2.Subscription, p1.Subscription)
			}
			if p2.Family != p1.Family || p2.DominantPattern != p1.DominantPattern {
				t.Errorf("%s: self-merge gave %v of family %v, want %v of %v", p1.Subscription,
					p2.DominantPattern, p2.Family, p1.DominantPattern, p1.Family)
			}
			if math.Abs(p1.MeanUtilization-p2.MeanUtilization) > 1e-9 {
				t.Errorf("%s: self-merge moved utilization: %v -> %v", p1.Subscription, p1.MeanUtilization, p2.MeanUtilization)
			}
		}
	}
}

// TestMergeLeavesPrevUntouched pins that Merge makes a new snapshot: the
// previous one, which readers may still hold, keeps its profiles and its
// fingerprint, and the result is ordered and labelled as a fold of both.
func TestMergeLeavesPrevUntouched(t *testing.T) {
	prev := SnapshotOf(12, 4, mkProfile("b", 0.2), mkProfile("d", 0.4))
	fp, b := prev.Fingerprint(), *prev.Profiles()[0]
	next := SnapshotOf(24, 1, mkProfile("c", 0.5), mkProfile("b", 0.6), mkProfile("a", 0.1))
	merged := Merge(prev, next, MergeOptions{NewWeight: 0.5})

	if prev.Len() != 2 || prev.Fingerprint() != fp || !reflect.DeepEqual(*prev.Profiles()[0], b) {
		t.Errorf("merge changed prev: len %d, fingerprint %s (was %s)", prev.Len(), prev.Fingerprint(), fp)
	}
	var subs []core.SubscriptionID
	for _, p := range merged.Profiles() {
		subs = append(subs, p.Subscription)
	}
	if want := []core.SubscriptionID{"a", "b", "c", "d"}; !reflect.DeepEqual(subs, want) {
		t.Errorf("merged subscriptions = %v, want %v", subs, want)
	}
	if merged.Step() != 24 || merged.Seq() != 5 {
		t.Errorf("merged labels = step %d seq %d, want 24 and 5", merged.Step(), merged.Seq())
	}
	if got, _ := merged.Get("b"); math.Abs(got.MeanUtilization-0.4) > 1e-12 {
		t.Errorf("blended utilization = %v, want 0.4", got.MeanUtilization)
	}
}
