package usage

import (
	"math"

	"cloudlens/internal/core"
	"cloudlens/internal/sim"
)

// Cursor evaluates one model step by step. Its At returns exactly what
// Params.At returns, bit for bit, for steps in any order; what it adds is
// that the bursty, spiky and irregular models decide their block once per
// block rather than once per sample, so a sample of a block already seen
// pays only its jitter. Every other pattern is evaluated through the
// pointer, without the copy Params.At's value receiver makes.
//
// A cursor caches pure functions of its Params, so it carries no state a
// caller must restore: a fresh cursor started at any step, mid-block
// included, returns the same values as one that walked there. A cursor is
// used with one grid, does not copy its Params (which must not change
// while the cursor is in use), and is not safe for concurrent use.
type Cursor struct {
	p *Params
	// block is the block comp was computed for; math.MinInt until the
	// first block-model evaluation.
	block int
	// comp is the burst or spike component of block.
	comp float64
}

// NewCursor returns a cursor over p.
func NewCursor(p *Params) Cursor { return Cursor{p: p, block: math.MinInt} }

// At returns the model's value at sample step of grid g: Params.At(g, step).
func (c *Cursor) At(g sim.Grid, step int) float64 {
	p := c.p
	switch p.Pattern {
	case core.PatternIrregular, core.PatternSpiky:
		if p.SpikeBlockSteps > 0 {
			if b := step / p.SpikeBlockSteps; b != c.block {
				c.block, c.comp = b, p.spikeComponent(step)
			}
			return p.jitter(step, p.Base+c.comp)
		}
	case core.PatternBursty:
		if p.BurstBlockSteps > 0 {
			if b := step / p.BurstBlockSteps; b != c.block {
				c.block, c.comp = b, p.burstComponent(g, step)
			}
			return p.jitter(step, p.Base+c.comp)
		}
	}
	return p.at(g, step)
}
