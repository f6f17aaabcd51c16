package stream

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"cloudlens/internal/sketch"
)

// TestSubUtilHandleAliasesSketch holds every live accumulator's counting
// handle to its own subscription's utilisation sketch, on both paths that
// build accumulators: a fresh run stopped mid-hour, and a restore from that
// run's checkpoint. One sample through the handle must move exactly the
// sketch the ingestor keeps for the subscription — its count and the bin
// Add would pick, by one — so a handle left unset, or aimed at a histogram
// the restore replaced, fails here.
func TestSubUtilHandleAliasesSketch(t *testing.T) {
	tr := midHourCPU(t)
	kill := 83*tr.Grid.StepsPerHour() + 11
	for _, shards := range []int{1, 2} {
		opts := Options{Shards: shards}
		eng := engineAt(t, tr, opts, kill)
		var buf bytes.Buffer
		if err := eng.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("shards=%d: write checkpoint: %v", shards, err)
		}
		eng.Abort()
		requireHandlesAlias(t, "fresh", eng.(*shardGroup))

		ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), tr)
		if err != nil {
			t.Fatalf("shards=%d: read checkpoint: %v", shards, err)
		}
		restored, err := RestoreEngine(tr, opts, ck)
		if err != nil {
			t.Fatalf("shards=%d: restore: %v", shards, err)
		}
		restored.Abort()
		requireHandlesAlias(t, "restored", restored.(*shardGroup))
	}
}

// requireHandlesAlias counts one sample through each live accumulator's
// handle and checks that the subscription's sketch moved by exactly that
// sample. The engine must be stopped; the sketches keep the extra counts.
func requireHandlesAlias(t *testing.T, path string, g *shardGroup) {
	t.Helper()
	live := 0
	for s, ing := range g.shards {
		for _, acc := range ing.accs {
			if acc == nil {
				continue
			}
			live++
			h := ing.subs[ing.keys.SubOf[acc.idx]].util
			want, err := sketch.HistogramFromState(h.State())
			if err != nil {
				t.Fatal(err)
			}
			x := float64(acc.idx%101) / 100
			want.Add(x)
			if !countThrough(acc.util, x) {
				t.Fatalf("%s shards=%d: shard %d VM %d: handle is unset", path, len(g.shards), s, acc.idx)
			}
			if got := h.State(); !reflect.DeepEqual(got, want.State()) {
				t.Fatalf("%s shards=%d: shard %d VM %d: a sample through the handle left the subscription's sketch at count %d, want %d in the bin Add picks",
					path, len(g.shards), s, acc.idx, got.N, want.Count())
			}
		}
	}
	if live == 0 {
		t.Fatalf("%s shards=%d: no live accumulator to check", path, len(g.shards))
	}
}

// countThrough adds x through c, reporting false if the handle has no
// sketch to count into.
func countThrough(c sketch.Counter, x float64) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	c.Add(x)
	return true
}

// TestVMAccLayout guards the accumulator's hot-first layout: the struct
// stays in its 896-byte size class, and every field observe touches per
// sample — the embedded sketch's moments, deferred-block count and first
// deferred slot included — lies in its first three cache lines. A field
// added ahead of them, to either struct, fails here rather than silently
// splitting the lines the per-sample path walks.
func TestVMAccLayout(t *testing.T) {
	if size := unsafe.Sizeof(vmAcc{}); size > 896 {
		t.Errorf("vmAcc is %d bytes, past its 896-byte size class", size)
	}
	const hotBytes = 192
	acc := reflect.TypeOf(vmAcc{})
	field := func(typ reflect.Type, name string) reflect.StructField {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("%s has no field %s", typ, name)
		}
		return f
	}
	check := func(name string, end uintptr) {
		if end > hotBytes {
			t.Errorf("%s ends at byte %d of vmAcc, past the hot %d", name, end, hotBytes)
		}
	}
	for _, name := range []string{"util", "cs", "from", "seen", "next", "last",
		"peakSum", "restSum", "peakN", "restN", "peakMax", "idleN", "qualified"} {
		f := field(acc, name)
		check(name, f.Offset+f.Type.Size())
	}
	ac := field(acc, "ac")
	for _, name := range []string{"w", "sum", "np"} {
		f := field(ac.Type, name)
		check("ac."+name, ac.Offset+f.Offset+f.Type.Size())
	}
	pend := field(ac.Type, "pend")
	check("ac.pend[0]", ac.Offset+pend.Offset+pend.Type.Elem().Size())
}
