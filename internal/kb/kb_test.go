package kb

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

var (
	kbOnce  sync.Once
	kbTrace *trace.Trace
	kbStore *Store
	kbErr   error
)

// sharedKB extracts one knowledge base for the whole test package.
func sharedKB(t *testing.T) (*trace.Trace, *Store) {
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

func TestHTTPHealthz(t *testing.T) {
	_, store := sharedKB(t)
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPSummary(t *testing.T) {
	_, store := sharedKB(t)
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]Summary
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out["private"].Subscriptions == 0 || out["public"].Subscriptions == 0 {
		t.Fatalf("summary payload incomplete: %+v", out)
	}
}

func TestHTTPProfiles(t *testing.T) {
	_, store := sharedKB(t)
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()

	t.Run("list with filters", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/api/v1/profiles?cloud=private&minAgnostic=0.8")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var profiles []*Profile
		if err := json.NewDecoder(resp.Body).Decode(&profiles); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(profiles) == 0 {
			t.Fatal("no region-agnostic private profiles over HTTP")
		}
		for _, p := range profiles {
			if p.Cloud != core.Private || p.RegionAgnosticScore < 0.8 {
				t.Fatalf("filter violated: %+v", p)
			}
		}
	})

	t.Run("single profile", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/api/v1/profiles/prv-sub-servicex")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var p Profile
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if p.Subscription != "prv-sub-servicex" {
			t.Fatalf("wrong profile: %s", p.Subscription)
		}
	})

	t.Run("not found", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/api/v1/profiles/ghost")
		if err != nil {
			t.Fatal(err)
		}
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
		if env.Error.Code != "not_found" {
			t.Errorf("envelope code %q, want not_found", env.Error.Code)
		}
	})

	t.Run("bad parameter", func(t *testing.T) {
		for _, q := range []string{"cloud=mars", "minAgnostic=abc", "pattern=wavy", "minShortLived=x"} {
			resp, err := http.Get(srv.URL + "/api/v1/profiles?" + q)
			if err != nil {
				t.Fatal(err)
			}
			env := decodeEnvelope(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("query %q: status %d, want 400", q, resp.StatusCode)
			}
			if env.Error.Code != "bad_param" || env.Error.Message == "" {
				t.Errorf("query %q: envelope = %+v", q, env)
			}
		}
	})

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/api/v1/profiles", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
		if env.Error.Code != "method_not_allowed" {
			t.Errorf("envelope code %q, want method_not_allowed", env.Error.Code)
		}
		if resp.Header.Get("Allow") == "" {
			t.Error("405 lost the Allow header")
		}
	})

	t.Run("unknown path", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/api/v2/profiles")
		if err != nil {
			t.Fatal(err)
		}
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != "not_found" {
			t.Errorf("status %d envelope %+v, want enveloped 404", resp.StatusCode, env)
		}
	})
}

// decodeEnvelope reads an error response body as the uniform JSON envelope.
func decodeEnvelope(t *testing.T, resp *http.Response) ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	var env ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v", err)
	}
	return env
}

func TestHTTPVersion(t *testing.T) {
	_, store := sharedKB(t)
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version status %d", resp.StatusCode)
	}
	var v VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v.Module == "" || v.GoVersion == "" {
		t.Errorf("version payload incomplete: %+v", v)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	store := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := core.SubscriptionID(rune('a' + n))
				store.Put(&Profile{Subscription: id, Cloud: core.Private})
				store.Get(id)
				store.List(Query{MinRegionAgnosticScore: disabledScore})
				store.Summarize(core.Private)
			}
		}(i)
	}
	wg.Wait()
	if store.Len() != 8 {
		t.Fatalf("store has %d profiles, want 8", store.Len())
	}
}

// TestStorePutSetIsOneWrite pins what a fold's publication relies on: a
// multi-profile Put lands as one write — one version bump, so a snapshot
// source rebuilds once — while the put counter still advances per profile
// and a later set replaces by subscription.
func TestStorePutSetIsOneWrite(t *testing.T) {
	store := NewStore()
	v0, puts0 := store.Version(), storePuts.Value()
	store.Put(
		&Profile{Subscription: "b", Cloud: core.Public},
		&Profile{Subscription: "a", Cloud: core.Private},
		&Profile{Subscription: "c", Cloud: core.Private},
	)
	if got := store.Version() - v0; got != 1 {
		t.Errorf("a three-profile Put bumped the version %d times, want 1", got)
	}
	if got := storePuts.Value() - puts0; got != 3 {
		t.Errorf("put counter advanced by %d, want 3", got)
	}
	store.Put(&Profile{Subscription: "a", Cloud: core.Private, VMsObserved: 7}, &Profile{Subscription: "d", Cloud: core.Public})
	if store.Len() != 4 {
		t.Fatalf("store has %d profiles, want 4", store.Len())
	}
	if p, _ := store.Get("a"); p == nil || p.VMsObserved != 7 {
		t.Errorf("profile a after replacement: %+v", p)
	}
	list := store.List(MatchAll())
	for i := 1; i < len(list); i++ {
		if list[i-1].Subscription >= list[i].Subscription {
			t.Errorf("List out of order at %d: %s then %s", i, list[i-1].Subscription, list[i].Subscription)
		}
	}
}
