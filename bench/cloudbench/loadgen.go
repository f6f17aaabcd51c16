package main

import (
	"time"
)

// shot is one request of a load schedule: when it was due, when it was
// actually sent, when it completed, and what came back.
type shot struct {
	op        int // index into the caller's operation table
	due       time.Time
	sent      time.Time
	done      time.Time
	failed    bool
	status    int
	afterFold bool // the response carried a validator not seen before
}

// latencyMS is the time from when the request was due, which counts the
// wait a stall imposes on the requests queued behind it.
func (s shot) latencyMS() float64 { return float64(s.done.Sub(s.due).Nanoseconds()) / 1e6 }

// serviceMS is the time from when the request was actually sent.
func (s shot) serviceMS() float64 { return float64(s.done.Sub(s.sent).Nanoseconds()) / 1e6 }

// lateMS is how far behind its schedule the generator sent the request.
func (s shot) lateMS() float64 { return float64(s.sent.Sub(s.due).Nanoseconds()) / 1e6 }

// clock is the time source of a schedule; tests substitute a fake.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: time.Sleep}

// openLoop sends request i at start + i/rate regardless of how long the
// earlier ones took, on one connection: a request that is still in flight
// when the next is due makes that one late, and the lateness is part of
// its latency. It stops once the next request would be due at or after
// end. do performs request i and fills in op, failed, status, afterFold.
func openLoop(c clock, start, end time.Time, rate float64, do func(i int, s *shot)) []shot {
	var shots []shot
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(end) {
			return shots
		}
		if wait := due.Sub(c.now()); wait > 0 {
			c.sleep(wait)
		}
		s := shot{due: due, sent: c.now()}
		do(i, &s)
		s.done = c.now()
		shots = append(shots, s)
	}
}

// closedLoop sends the next request as soon as the previous one completes,
// until end.
func closedLoop(c clock, end time.Time, do func(i int, s *shot)) []shot {
	var shots []shot
	for i := 0; c.now().Before(end); i++ {
		s := shot{sent: c.now()}
		s.due = s.sent
		do(i, &s)
		s.done = c.now()
		shots = append(shots, s)
	}
	return shots
}
