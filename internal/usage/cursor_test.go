package usage

import (
	"math"
	"testing"
	"time"

	"cloudlens/internal/sim"
)

// cursorGrids are the grids the cursor oracle draws from: sub-minute to
// coarse steps, and steps longer than a day.
var cursorGrids = []sim.Grid{
	{Start: grid.Start, Step: 30 * time.Second, N: 2 * 24 * 120},
	{Start: grid.Start, Step: time.Minute, N: 2 * 24 * 60},
	grid,
	{Start: grid.Start, Step: 15 * time.Minute, N: 7 * 24 * 4},
	{Start: grid.Start, Step: 36 * time.Hour, N: 40},
}

// FuzzCursorMatchesAt holds Cursor.At to Params.At bit for bit for every
// pattern of both families, on several grids, in every time zone and
// anchoring, over step sequences that rise, jump back and repeat.
func FuzzCursorMatchesAt(f *testing.F) {
	for kind := uint8(0); kind < 7; kind++ {
		f.Add(uint64(kind)+1, kind, uint8(40*kind), uint8(200-20*kind), uint8(255-30*kind), kind, int16(-300+100*int(kind)), kind%2 == 0, uint16(997*int(kind)), uint16(123), uint16(400))
	}
	f.Add(uint64(9), uint8(4), uint8(255), uint8(9), uint8(255), uint8(1), int16(330), false, uint16(1237), uint16(7), uint16(2000))
	f.Add(uint64(10), uint8(6), uint8(255), uint8(2), uint8(255), uint8(0), int16(840), true, uint16(5), uint16(60000), uint16(60000))
	f.Fuzz(func(t *testing.T, seed uint64, kind, a, b, c, gridByte uint8, tz int16, anchored bool, start, jump, length uint16) {
		p := randomValidParams(seed, kind, a, b, c)
		p.TZOffsetMin, p.UTCAnchored = int(tz)%841, anchored
		g := cursorGrids[int(gridByte)%len(cursorGrids)]
		// Up a run from start, up a run from jump steps earlier, then over
		// the first run again.
		from := int(start) % g.N
		back := max(from-int(jump)%g.N, 0)
		run := int(length)%g.N + 1
		cur := NewCursor(&p)
		for _, lo := range []int{from, back, from} {
			for s := lo; s < min(lo+run, g.N); s++ {
				got, want := cur.At(g, s), p.At(g, s)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v on the %v grid: Cursor.At(%d) = %v, Params.At = %v", p.Pattern, g.Step, s, got, want)
				}
			}
		}
	})
}
