package kb

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudlens/internal/core"
)

// snapProfiles returns three profiles, out of subscription order.
func snapProfiles() []*Profile {
	return []*Profile{
		{Subscription: "b", Cloud: core.Public, MeanUtilization: 0.4, RegionAgnosticScore: -1},
		{Subscription: "a", Cloud: core.Private, MeanUtilization: 0.3, RegionAgnosticScore: 0.9},
		{Subscription: "c", Cloud: core.Private, MeanUtilization: 0.5, RegionAgnosticScore: -1},
	}
}

func snapKB() *Snapshot { return SnapshotOf(0, 1, snapProfiles()...) }

func TestMatchAllIncludesNegativeScores(t *testing.T) {
	// The zero Query filters out single-region profiles whose
	// RegionAgnosticScore is the -1 sentinel; MatchAll must not.
	s := snapKB()
	if got := len(s.List(Query{})); got == 3 {
		t.Skip("zero Query no longer filters; MatchAll redundant but harmless")
	}
	if got := len(s.List(MatchAll())); got != 3 {
		t.Errorf("MatchAll lists %d of 3 profiles", got)
	}
}

func TestSnapshotContents(t *testing.T) {
	sn := SnapshotOf(12, 3, snapProfiles()...)
	if sn.Step() != 12 || sn.Seq() != 3 || sn.Len() != 3 {
		t.Errorf("snapshot identity = step %d seq %d len %d", sn.Step(), sn.Seq(), sn.Len())
	}
	// Profiles come back sorted by subscription for deterministic
	// iteration.
	ps := sn.Profiles()
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Subscription >= ps[i].Subscription {
			t.Errorf("profiles unsorted: %s before %s", ps[i-1].Subscription, ps[i].Subscription)
		}
	}
	if p, ok := sn.Get("a"); !ok || p.Cloud != core.Private {
		t.Errorf("Get(a) = %+v, %v", p, ok)
	}
	if _, ok := sn.Get("ghost"); ok {
		t.Error("Get(ghost) found a profile")
	}
	// Empty snapshots have an empty profile list, not a nil one.
	empty := SnapshotOf(0, 0)
	if empty.Len() != 0 || empty.Profiles() == nil {
		t.Errorf("empty snapshot = %+v", empty)
	}
}

func TestSnapshotFingerprint(t *testing.T) {
	fp := SnapshotOf(12, 3, snapProfiles()...).Fingerprint()
	if !strings.HasPrefix(fp, "fnv1a:") || len(fp) != len("fnv1a:")+16 {
		t.Fatalf("fingerprint format = %q", fp)
	}
	// Same contents ⇒ same fingerprint, regardless of step/seq labels and
	// insertion order.
	s2 := snapProfiles()
	slices.Reverse(s2)
	if got := SnapshotOf(99, 7, s2...).Fingerprint(); got != fp {
		t.Errorf("fingerprint depends on labels or order: %q != %q", got, fp)
	}
	// Different contents ⇒ different fingerprint.
	s3 := snapProfiles()
	s3[1] = &Profile{Subscription: "a", Cloud: core.Private, MeanUtilization: 0.31, RegionAgnosticScore: 0.9}
	if got := SnapshotOf(12, 3, s3...).Fingerprint(); got == fp {
		t.Error("fingerprint ignored a profile change")
	}
	// Fingerprint is stable across calls (computed once).
	sn := SnapshotOf(12, 3, snapProfiles()...)
	if sn.Fingerprint() != sn.Fingerprint() {
		t.Error("fingerprint not stable")
	}
}

// TestSnapshotIsItsOwnSource pins the fixed source: a snapshot serves
// itself, and a stamped view of it shares everything derived from it.
func TestSnapshotIsItsOwnSource(t *testing.T) {
	sn := SnapshotOf(12, 3, snapProfiles()...)
	var src SnapshotSource = sn
	if src.Snapshot() != sn || src.Snapshot() != sn {
		t.Fatal("a snapshot served something other than itself")
	}
	if !sn.PublishedAt().IsZero() {
		t.Errorf("unstamped snapshot published at %v", sn.PublishedAt())
	}

	at := time.Unix(1700000000, 0)
	stamped := sn.Stamped(at)
	if stamped.PublishedAt() != at || stamped.Step() != 12 || stamped.Seq() != 3 || stamped.Len() != 3 {
		t.Fatalf("stamped = at %v step %d seq %d len %d", stamped.PublishedAt(), stamped.Step(), stamped.Seq(), stamped.Len())
	}
	if &stamped.Profiles()[0] != &sn.Profiles()[0] {
		t.Error("stamping copied the profile slice")
	}
	stamped.Summarize(core.Private)
	sn.Summarize(core.Private)
	if n := sn.SummarizeComputes(); n != 1 {
		t.Errorf("summary computed %d times across a snapshot and its stamp", n)
	}
	if p, ok := stamped.Get("c"); !ok || p != sn.Profiles()[2] {
		t.Errorf("stamped Get(c) = %v, %v", p, ok)
	}
	if stamped.Fingerprint() != sn.Fingerprint() {
		t.Error("stamping changed the fingerprint")
	}
}

func TestSummarizeComputesAtMostOncePerCloud(t *testing.T) {
	sn := snapKB()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sn.Summarize(core.Private)
				sn.Summarize(core.Public)
			}
		}()
	}
	wg.Wait()
	// This is the regression the snapshot read path exists for: the old
	// handler recomputed the summary under the store lock on every GET.
	if n := sn.SummarizeComputes(); n > 2 {
		t.Errorf("summary computed %d times for 2 clouds", n)
	}
}

func TestSnapshotMemoComputesOnce(t *testing.T) {
	sn := snapKB()
	calls := 0
	compute := func() interface{} { calls++; return []byte("payload") }
	a := sn.Memo("test.key", compute)
	b := sn.Memo("test.key", compute)
	if calls != 1 {
		t.Errorf("compute ran %d times", calls)
	}
	if &a.([]byte)[0] != &b.([]byte)[0] {
		t.Error("memo returned different values")
	}
	// Distinct keys do not collide.
	sn.Memo("test.other", func() interface{} { return 42 })
	if got := sn.Memo("test.key", compute).([]byte); string(got) != "payload" {
		t.Errorf("memo overwritten: %q", got)
	}
}
