package kb

import (
	"sync"
	"testing"
	"time"

	"cloudlens/internal/core"
)

func TestStoreSourceCachesUntilWrite(t *testing.T) {
	store := snapStore()
	clockCalls := 0
	clock := func() time.Time {
		clockCalls++
		return time.Unix(int64(1700000000+clockCalls), 0)
	}
	src := NewStoreSource(store, 12, clock)

	first := src.Snapshot()
	if first.Step() != 12 || first.Len() != 3 {
		t.Fatalf("snapshot = step %d len %d", first.Step(), first.Len())
	}
	// Static store ⇒ the very same snapshot, not an equal rebuild: every
	// memoized payload and the fingerprint are shared across requests.
	if src.Snapshot() != first || src.Snapshot() != first {
		t.Error("snapshot rebuilt without a write")
	}
	if clockCalls != 1 {
		t.Errorf("clock consulted %d times for one build", clockCalls)
	}

	store.Put(&Profile{Subscription: "d", Cloud: core.Public, MeanUtilization: 0.6, RegionAgnosticScore: -1})
	second := src.Snapshot()
	if second == first {
		t.Fatal("write not observed: cached snapshot still served")
	}
	if second.Len() != 4 {
		t.Errorf("rebuilt snapshot has %d profiles, want 4", second.Len())
	}
	if second.Seq() <= first.Seq() {
		t.Errorf("sequence did not advance: %d then %d", first.Seq(), second.Seq())
	}
	if !second.PublishedAt().After(first.PublishedAt()) {
		t.Errorf("publish time did not advance: %v then %v", first.PublishedAt(), second.PublishedAt())
	}
	if src.Snapshot() != second {
		t.Error("snapshot rebuilt again without a write")
	}
}

func TestStoreSourceNilStore(t *testing.T) {
	// A nil store still answers with an empty snapshot, cached like any other.
	src := NewStoreSource(nil, 0, nil)
	sn := src.Snapshot()
	if sn == nil || sn.Len() != 0 {
		t.Fatalf("nil-store snapshot = %v", sn)
	}
	if src.Snapshot() != sn {
		t.Error("nil-store snapshot rebuilt")
	}
}

func TestSummarizeComputesAtMostOncePerCloud(t *testing.T) {
	sn := NewSnapshot(snapStore(), 0, 1)
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
	sn := NewSnapshot(snapStore(), 0, 1)
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
