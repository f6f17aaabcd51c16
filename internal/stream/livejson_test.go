package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"cloudlens/internal/kb"
	"cloudlens/internal/workload"
)

// referenceFingerprint is kb.Snapshot.Fingerprint as it was before the
// canonical encoder: FNV-1a over json.Encoder's output for each profile.
func referenceFingerprint(profiles []*kb.Profile) string {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, p := range profiles {
		_ = enc.Encode(p)
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// checkLiveEncoding holds every body the snapshot serves, and its
// fingerprint, to encoding/json's rendering of the same values.
func checkLiveEncoding(t *testing.T, ls *LiveSnapshot) {
	t.Helper()
	if got, want := ls.KB().Fingerprint(), referenceFingerprint(ls.KB().Profiles()); got != want {
		t.Fatalf("step %d: fingerprint %s, reference %s", ls.KB().Step(), got, want)
	}
	for i := range ls.live {
		want, err := json.Marshal(ls.live[i])
		if err != nil {
			t.Fatalf("marshal %s: %v", ls.live[i].Subscription, err)
		}
		if got := ls.AppendBody(nil, i); !bytes.Equal(got, want) {
			t.Fatalf("step %d, %s:\n got %s\nwant %s", ls.KB().Step(), ls.live[i].Subscription, got, want)
		}
	}
}

// TestLiveBodiesMatchEncodingJSON drives a generated week through the
// engine by hand and, after every fold, reads the snapshot a reader would
// get and checks each pre-encoded live body and the fingerprint against
// encoding/json.
func TestLiveBodiesMatchEncodingJSON(t *testing.T) {
	cfg := workload.DefaultConfig(42)
	cfg.Scale = 0.05
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	rs := NewReadSource(nil)
	opts := Options{}
	rep := NewReplayer(tr, opts)
	eng := NewEngine(tr, opts)
	rs.Bind(eng)
	eng.SetRecycler(rep.Recycle)
	errCh := make(chan error, 1)
	go func() { errCh <- rep.Run(context.Background()) }()

	var folds, profiles int64
	for b := range rep.Events() {
		eng.ObserveBatch(b)
		if f := eng.Progress().Folds; f != folds {
			folds = f
			ls := rs.Live()
			checkLiveEncoding(t, ls)
			profiles += int64(ls.Len())
		}
	}
	if err := <-errCh; err != nil {
		t.Fatalf("replay: %v", err)
	}
	eng.Finish()
	checkLiveEncoding(t, rs.Live())
	if folds < 100 || profiles == 0 {
		t.Fatalf("checked %d folds, %d profiles", folds, profiles)
	}
}

// panicOnceEngine is an Engine whose first CaptureLive panics.
type panicOnceEngine struct {
	Engine
	mu       sync.Mutex
	panicked bool
}

func (e *panicOnceEngine) Progress() Progress { return Progress{} }

func (e *panicOnceEngine) CaptureLive() LiveCapture {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.panicked {
		e.panicked = true
		panic("capture failed")
	}
	return LiveCapture{Step: 7}
}

// TestReadSourceRecoversFromPanickingRebuild pins that a rebuild that
// panics does not wedge the source: the next reader rebuilds and gets a
// fresh snapshot instead of spinning (nothing cached) or being handed a
// stale one forever.
func TestReadSourceRecoversFromPanickingRebuild(t *testing.T) {
	rs := NewReadSource(nil)
	rs.Bind(&panicOnceEngine{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the first rebuild did not panic")
			}
		}()
		rs.Live()
	}()
	done := make(chan *LiveSnapshot, 1)
	go func() { done <- rs.Live() }()
	select {
	case ls := <-done:
		if ls.Summary().Step != 7 {
			t.Errorf("snapshot step %d, want the second capture's 7", ls.Summary().Step)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Live wedged after a panicking rebuild")
	}
}
