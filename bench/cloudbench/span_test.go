package main

import (
	"testing"
	"time"
)

// Self time is duration minus the time the span's children cover.
func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	const ms = int64(time.Millisecond)
	spans := []span{
		{Name: "drive", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "observe", Start: 0, End: 40 * ms, Parent: 0},
		{Name: "fold", Start: 10 * ms, End: 25 * ms, Parent: 1},
		{Name: "observe", Start: 40 * ms, End: 70 * ms, Parent: 0},
		{Name: "wait", Start: 70 * ms, End: 90 * ms, Parent: 0},
		{Name: "fold", Start: 45 * ms, End: 50 * ms, Parent: 3},
	}
	got := totalsOf(spans)
	for name, want := range map[string]struct{ total, self time.Duration }{
		"drive":   {100 * time.Millisecond, 10 * time.Millisecond}, // 100 - (40+30+20)
		"observe": {70 * time.Millisecond, 50 * time.Millisecond},  // 70 - (15+5)
		"fold":    {20 * time.Millisecond, 20 * time.Millisecond},
		"wait":    {20 * time.Millisecond, 20 * time.Millisecond},
	} {
		if got.total[name] != want.total || got.self[name] != want.self {
			t.Errorf("%s: total %v self %v, want %v %v", name, got.total[name], got.self[name], want.total, want.self)
		}
	}
}

func TestRecorderNestsAndNilRecordsNothing(t *testing.T) {
	r := newRecorder("w")
	root := r.begin("root", -1)
	d := r.timed("child", root, func() { time.Sleep(time.Millisecond) })
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Workload != "w" {
		t.Fatalf("spans = %+v", spans)
	}
	if d < time.Millisecond || spans[1].End-spans[1].Start != int64(d) {
		t.Errorf("timed returned %v, span holds %v", d, spans[1].End-spans[1].Start)
	}
	if spans[0].Start > spans[1].Start || spans[0].End < spans[1].End {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}

	var none *recorder
	id := none.begin("x", -1)
	if none.end(id) != 0 || none.snapshot() != nil {
		t.Error("nil recorder recorded something")
	}
	if d := none.timed("x", -1, func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("nil recorder timed %v, want the call's duration", d)
	}
}
