package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// forceWorkers runs f with GOMAXPROCS pinned to n so the concurrent paths
// are exercised even on single-core machines (and under -race).
func forceWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 4} {
		forceWorkers(t, workers, func() {
			hits := make([]int32, 1000)
			ForEach(len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
				}
			}
		})
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	called := false
	ForEach(0, func(int) { called = true })
	ForEach(-3, func(int) { called = true })
	if called {
		t.Fatal("ForEach invoked fn for empty range")
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 8} {
		forceWorkers(t, workers, func() {
			out := Map(500, func(i int) int { return i * i })
			for i, v := range out {
				if v != i*i {
					t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
				}
			}
		})
	}
}

func TestForEachChunkCoversRangeWithoutOverlap(t *testing.T) {
	for _, workers := range []int{1, 3, 7} {
		forceWorkers(t, workers, func() {
			hits := make([]int32, 101)
			ForEachChunk(len(hits), func(lo, hi int) {
				if lo >= hi {
					t.Errorf("empty chunk [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d: index %d covered %d times", workers, i, h)
				}
			}
		})
	}
}

func TestDoRunsEveryTask(t *testing.T) {
	forceWorkers(t, 4, func() {
		var a, b, c int32
		Do(
			func() { atomic.AddInt32(&a, 1) },
			func() { atomic.AddInt32(&b, 1) },
			func() { atomic.AddInt32(&c, 1) },
		)
		if a != 1 || b != 1 || c != 1 {
			t.Fatalf("tasks ran (%d,%d,%d) times", a, b, c)
		}
	})
}

func TestForEachPropagatesPanic(t *testing.T) {
	forceWorkers(t, 4, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in worker was swallowed")
			}
		}()
		ForEach(64, func(i int) {
			if i == 13 {
				panic("boom")
			}
		})
	})
}

func TestWorkersAtLeastOne(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
}

// TestDispatchAllocatesNothing pins the persistent pool's contract: once its
// helpers are running, a dispatch allocates nothing — no goroutines, no
// chunk table, no dispatch record.
func TestDispatchAllocatesNothing(t *testing.T) {
	forceWorkers(t, 2, func() {
		var sink atomic.Int64
		each := func(i int) { sink.Add(int64(i)) }
		chunk := func(lo, hi int) { sink.Add(int64(hi - lo)) }
		for _, c := range []struct {
			name string
			want float64
			f    func()
		}{
			{"ForEach", 0, func() { ForEach(64, each) }},
			{"ForEachChunk", 0, func() { ForEachChunk(64, chunk) }},
		} {
			if got := testing.AllocsPerRun(200, c.f); got != c.want {
				t.Errorf("%s: %.2f allocs per dispatch, want %.0f", c.name, got, c.want)
			}
		}
	})
}

// TestNestedForEachFinishes dispatches from inside a dispatch at several
// core counts. Every caller works its own dispatch, so the inner fan-outs
// finish even when every helper is busy in the outer one.
func TestNestedForEachFinishes(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		forceWorkers(t, workers, func() {
			hits := make([]int32, 16*16)
			done := make(chan struct{})
			go func() {
				defer close(done)
				ForEach(16, func(i int) {
					ForEach(16, func(j int) { atomic.AddInt32(&hits[i*16+j], 1) })
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("workers=%d: nested ForEach did not finish", workers)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
				}
			}
		})
	}
}

// TestHelperPanicLeavesPoolUsable makes both units of a dispatch wait for
// each other, so one of them necessarily runs on a persistent helper, and
// panics in both. The panic must reach the caller, and the helper must
// survive it: the next two-party dispatch can only finish if it does.
func TestHelperPanicLeavesPoolUsable(t *testing.T) {
	forceWorkers(t, 2, func() {
		rendezvous := func(arrived *atomic.Int32) {
			arrived.Add(1)
			deadline := time.Now().Add(30 * time.Second)
			for arrived.Load() < 2 {
				if time.Now().After(deadline) {
					panic("no second participant: the pool lost its helper")
				}
				runtime.Gosched()
			}
		}
		var first atomic.Int32
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want the unit's panic", r)
				}
			}()
			ForEach(2, func(int) {
				rendezvous(&first)
				panic("boom")
			})
		}()
		var second atomic.Int32
		ForEach(2, func(int) { rendezvous(&second) })
		if second.Load() != 2 {
			t.Fatalf("second dispatch ran %d units, want 2", second.Load())
		}
	})
}
