package main

import (
	"testing"
	"time"
)

// fakeClock is a clock only sleeping and serving advance.
type fakeClock struct{ t time.Time }

func (f *fakeClock) clock() clock {
	return clock{now: func() time.Time { return f.t }, sleep: func(d time.Duration) { f.t = f.t.Add(d) }}
}

// One stalled request on an open-loop connection makes the requests due
// behind it late, and their latency counts the wait from their own due
// time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const ms = time.Millisecond
	f := &fakeClock{t: time.Unix(1000, 0)}
	start := f.t
	service := func(i int, s *shot) {
		d := 2 * ms
		if i == 3 {
			d = 35 * ms // the injected stall
		}
		f.t = f.t.Add(d)
		s.op = i
	}
	shots := openLoop(f.clock(), start, start.Add(100*ms), 100, service) // one every 10 ms
	if len(shots) != 10 {
		t.Fatalf("sent %d requests in 100 ms at 100/s, want 10", len(shots))
	}
	want := []struct{ late, latency float64 }{
		{0, 2}, {0, 2}, {0, 2},
		{0, 35},  // the stall itself: due 30, done 65
		{25, 27}, // due 40, sent 65
		{17, 19}, // due 50, sent 67
		{9, 11},  // due 60, sent 69
		{1, 3},   // due 70, sent 71
		{0, 2}, {0, 2},
	}
	for i, s := range shots {
		if s.op != i || s.lateMS() != want[i].late || s.latencyMS() != want[i].latency {
			t.Errorf("request %d: late %v ms, latency %v ms, want %v and %v", i, s.lateMS(), s.latencyMS(), want[i].late, want[i].latency)
		}
		if got := s.serviceMS(); got != s.latencyMS()-s.lateMS() {
			t.Errorf("request %d: service %v ms is not latency minus lateness", i, got)
		}
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	f := &fakeClock{t: time.Unix(1000, 0)}
	shots := closedLoop(f.clock(), f.t.Add(10*time.Millisecond), func(_ int, s *shot) { f.t = f.t.Add(3 * time.Millisecond) })
	if len(shots) != 4 { // sent at 0, 3, 6, 9 ms
		t.Fatalf("closed loop completed %d requests, want 4", len(shots))
	}
	for i, s := range shots {
		if s.lateMS() != 0 || s.latencyMS() != 3 {
			t.Errorf("request %d: late %v ms, latency %v ms", i, s.lateMS(), s.latencyMS())
		}
	}
}
