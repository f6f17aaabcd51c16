package kb

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

var (
	kbOnce  sync.Once
	kbTrace *trace.Trace
	kbStore *Snapshot
	kbErr   error
)

// sharedKB extracts one knowledge base for the whole test package.
func sharedKB(t *testing.T) (*trace.Trace, *Snapshot) {
	t.Helper()
	kbOnce.Do(func() {
		cfg := workload.DefaultConfig(21)
		cfg.Scale = 0.5
		kbTrace, kbErr = workload.Generate(cfg)
		if kbErr == nil {
			kbStore = Extract(kbTrace, ExtractOptions{})
		}
	})
	if kbErr != nil {
		t.Fatalf("build shared kb: %v", kbErr)
	}
	return kbTrace, kbStore
}

var (
	serverlessOnce  sync.Once
	serverlessTrace *trace.Trace
	serverlessKB    *Snapshot
	serverlessErr   error
)

// sharedServerlessKB extracts the default serverless week (seed 42) once
// for the whole test package.
func sharedServerlessKB(t *testing.T) (*trace.Trace, *Snapshot) {
	t.Helper()
	serverlessOnce.Do(func() {
		serverlessTrace, serverlessErr = workload.GenerateServerless(workload.DefaultServerlessConfig(42))
		if serverlessErr == nil {
			serverlessKB = Extract(serverlessTrace, ExtractOptions{})
		}
	})
	if serverlessErr != nil {
		t.Fatalf("build serverless kb: %v", serverlessErr)
	}
	return serverlessTrace, serverlessKB
}

// TestExtractFingerprintPinned pins the knowledge base Extract builds from
// the package's shared CPU trace (seed 21, scale 0.5) and from the default
// serverless week (seed 42), byte for byte through the fingerprint. Every
// profile rule (shares, dominant pattern and its tie order, mean
// utilization, peak hour, region-agnostic score) feeds the bytes, so a
// refactor of those rules that moves any float, or any label, fails here.
func TestExtractFingerprintPinned(t *testing.T) {
	_, cpu := sharedKB(t)
	_, serverless := sharedServerlessKB(t)
	for _, tc := range []struct {
		name    string
		kb      *Snapshot
		profile int
		fp      string
	}{
		{"cpu", cpu, 1147, "fnv1a:fbd519145f7ab9fc"},
		{"serverless", serverless, 24, "fnv1a:fbf154905bc3dc9d"},
	} {
		if tc.kb.Len() != tc.profile || tc.kb.Fingerprint() != tc.fp {
			t.Errorf("%s: %d profiles, fingerprint %s; want %d and %s",
				tc.name, tc.kb.Len(), tc.kb.Fingerprint(), tc.profile, tc.fp)
		}
	}
}

func TestExtractCoversAllSubscriptions(t *testing.T) {
	tr, store := sharedKB(t)
	subs := make(map[core.SubscriptionID]bool)
	for i := range tr.VMs {
		subs[tr.VMs[i].Subscription] = true
	}
	if store.Len() != len(subs) {
		t.Fatalf("store has %d profiles, trace has %d subscriptions", store.Len(), len(subs))
	}
}

func TestProfileContents(t *testing.T) {
	_, store := sharedKB(t)
	p, ok := store.Get("prv-sub-servicex")
	if !ok {
		t.Fatal("ServiceX subscription missing from the knowledge base")
	}
	if p.Cloud != core.Private {
		t.Fatalf("ServiceX cloud = %v", p.Cloud)
	}
	if len(p.Regions) < 5 {
		t.Fatalf("ServiceX regions = %v", p.Regions)
	}
	if p.RegionAgnosticScore < RegionAgnosticThreshold {
		t.Fatalf("ServiceX region-agnostic score %.2f below threshold", p.RegionAgnosticScore)
	}
	if p.DominantPattern != core.PatternHourlyPeak && p.DominantPattern != core.PatternDiurnal {
		t.Fatalf("ServiceX dominant pattern = %v", p.DominantPattern)
	}
	if p.MeanUtilization <= 0 || p.MeanUtilization >= 1 {
		t.Fatalf("mean utilization = %v", p.MeanUtilization)
	}
	if p.PeakHourUTC < 0 || p.PeakHourUTC > 23 {
		t.Fatalf("peak hour = %d", p.PeakHourUTC)
	}
}

func TestProfileShortLivedSignal(t *testing.T) {
	_, store := sharedKB(t)
	// Public subscriptions in aggregate must show a much higher
	// short-lived share than private ones.
	var privSum, pubSum float64
	var privN, pubN int
	for _, p := range store.List(Query{MinRegionAgnosticScore: disabledScore}) {
		if p.MedianLifetimeMin == 0 {
			continue
		}
		if p.Cloud == core.Private {
			privSum += p.ShortLivedShare
			privN++
		} else {
			pubSum += p.ShortLivedShare
			pubN++
		}
	}
	if privN == 0 || pubN == 0 {
		t.Fatal("no lifetime data in profiles")
	}
	if pubSum/float64(pubN) <= privSum/float64(privN) {
		t.Fatalf("public short-lived share %.2f not above private %.2f",
			pubSum/float64(pubN), privSum/float64(privN))
	}
}

func TestStoreQueryFilters(t *testing.T) {
	_, store := sharedKB(t)
	all := store.List(Query{MinRegionAgnosticScore: disabledScore})
	if len(all) != store.Len() {
		t.Fatalf("unfiltered list = %d, want %d", len(all), store.Len())
	}
	private := store.List(Query{Cloud: core.Private, MinRegionAgnosticScore: disabledScore})
	for _, p := range private {
		if p.Cloud != core.Private {
			t.Fatal("cloud filter leaked")
		}
	}
	agnostic := store.List(Query{MinRegionAgnosticScore: RegionAgnosticThreshold})
	if len(agnostic) == 0 {
		t.Fatal("no region-agnostic profiles found")
	}
	for _, p := range agnostic {
		if p.RegionAgnosticScore < RegionAgnosticThreshold {
			t.Fatal("score filter leaked")
		}
	}
	// Sorted output.
	for i := 1; i < len(all); i++ {
		if all[i].Subscription < all[i-1].Subscription {
			t.Fatal("list not sorted")
		}
	}
}

func TestSummarize(t *testing.T) {
	_, store := sharedKB(t)
	priv := store.Summarize(core.Private)
	pub := store.Summarize(core.Public)
	if priv.Subscriptions == 0 || pub.Subscriptions == 0 {
		t.Fatal("empty summaries")
	}
	if pub.Subscriptions < 5*priv.Subscriptions {
		t.Fatalf("public %d vs private %d subscriptions", pub.Subscriptions, priv.Subscriptions)
	}
	if priv.RegionAgnostic == 0 {
		t.Fatal("no region-agnostic private subscriptions in summary")
	}
	total := 0.0
	for _, v := range priv.PatternShares {
		total += v
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("private pattern shares sum to %v", total)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	_, store := sharedKB(t)
	path := filepath.Join(t.TempDir(), "kb.json")
	if err := store.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	// The file holds what json.MarshalIndent wrote before the canonical
	// encoder replaced it.
	saved, _ := os.ReadFile(path)
	if want, _ := json.MarshalIndent(store.List(MatchAll()), "", "  "); !bytes.Equal(saved, want) {
		t.Error("SaveFile bytes differ from json.MarshalIndent's")
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if loaded.Len() != store.Len() {
		t.Fatalf("loaded %d profiles, want %d", loaded.Len(), store.Len())
	}
	p1, _ := store.Get("prv-sub-servicex")
	p2, ok := loaded.Get("prv-sub-servicex")
	if !ok || p2.RegionAgnosticScore != p1.RegionAgnosticScore {
		t.Fatal("profile contents changed across save/load")
	}
}

func TestLoadFileErrors(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadFileRefusesDuplicateSubscription: a knowledge-base file is
// outside input, and one that lists a subscription twice has no single
// profile to serve for it, so loading it fails instead of making a
// snapshot with the duplicate.
func TestLoadFileRefusesDuplicateSubscription(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.json")
	data, err := json.Marshal([]*Profile{
		{Subscription: "b", Cloud: core.Private},
		{Subscription: "a", Cloud: core.Private},
		{Subscription: "b", Cloud: core.Public},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sn, err := LoadFile(path)
	if err == nil {
		t.Fatalf("loaded a file listing b twice: %d profiles", sn.Len())
	}
	if !strings.Contains(err.Error(), `"b" listed twice`) {
		t.Errorf("error %q does not name the duplicate", err)
	}
}

// TestSnapshotConcurrentReads races first lookups on a fresh snapshot: the
// index, summaries and fingerprint are built lazily, once, whichever
// reader arrives first.
func TestSnapshotConcurrentReads(t *testing.T) {
	var profiles []*Profile
	for n := 0; n < 8; n++ {
		profiles = append(profiles, &Profile{Subscription: core.SubscriptionID(rune('h' - n)), Cloud: core.Private})
	}
	sn := SnapshotOf(0, 1, profiles...)
	var wg sync.WaitGroup
	fps := make([]string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := core.SubscriptionID(rune('a' + n))
				if p, ok := sn.Get(id); !ok || p.Subscription != id {
					t.Errorf("Get(%s) = %v, %v", id, p, ok)
					return
				}
				sn.List(MatchAll())
				sn.Summarize(core.Private)
				fps[n] = sn.Fingerprint()
			}
		}(i)
	}
	wg.Wait()
	if sn.Len() != 8 || sn.SummarizeComputes() != 1 {
		t.Fatalf("snapshot has %d profiles and %d summaries, want 8 and 1", sn.Len(), sn.SummarizeComputes())
	}
	for _, fp := range fps[1:] {
		if fp != fps[0] {
			t.Errorf("readers saw fingerprints %s and %s", fps[0], fp)
		}
	}
}

// TestSnapshotOfSortsAndCountsPuts pins what the fold's publication and the
// metrics rely on: SnapshotOf orders profiles by subscription, the put
// counter advances by the profile count and the gauge holds the new
// snapshot's size, and a subscription listed twice is refused.
func TestSnapshotOfSortsAndCountsPuts(t *testing.T) {
	puts0 := snapshotPuts.Value()
	sn := SnapshotOf(12, 1,
		&Profile{Subscription: "b", Cloud: core.Public},
		&Profile{Subscription: "a", Cloud: core.Private},
		&Profile{Subscription: "c", Cloud: core.Private},
	)
	if got := snapshotPuts.Value() - puts0; got != 3 {
		t.Errorf("put counter advanced by %d, want 3", got)
	}
	if got := snapshotProfiles.Value(); got != 3 {
		t.Errorf("profiles gauge = %v, want 3", got)
	}
	list := sn.List(MatchAll())
	for i := 1; i < len(list); i++ {
		if list[i-1].Subscription >= list[i].Subscription {
			t.Errorf("List out of order at %d: %s then %s", i, list[i-1].Subscription, list[i].Subscription)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SnapshotOf accepted a subscription listed twice")
		}
	}()
	SnapshotOf(0, 0, &Profile{Subscription: "a"}, &Profile{Subscription: "b"}, &Profile{Subscription: "a"})
}
