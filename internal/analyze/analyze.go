// Package analyze implements the paper's characterization pipeline: one
// analysis per figure of the evaluation (Figures 1-7), each consuming a
// trace and producing a typed result that carries both the full curves and
// the headline statistics the paper quotes in its text (e.g. "49% of
// private cloud VMs fall in the shortest lifetime bin, as compared to 81%
// of public cloud VMs").
//
// The package is the reproduction of the paper's primary contribution — the
// comparative characterization of private and public cloud workloads — and
// is surfaced to users through the public cloudlens package.
package analyze

import (
	"cloudlens/internal/core"
	"cloudlens/internal/trace"
)

// PerCloud pairs a per-platform result, private first as in the paper's
// figures.
type PerCloud[T any] struct {
	Private T `json:"private"`
	Public  T `json:"public"`
}

// Get returns the value for one platform.
func (p *PerCloud[T]) Get(c core.Cloud) T {
	if c == core.Public {
		return p.Public
	}
	return p.Private
}

// Set stores the value for one platform.
func (p *PerCloud[T]) Set(c core.Cloud, v T) {
	if c == core.Public {
		p.Public = v
	} else {
		p.Private = v
	}
}

// minCorrOverlapSteps is the minimum lifetime overlap (one day at 5-minute
// resolution) required before a VM participates in a correlation study;
// correlations over a handful of samples are noise.
const minCorrOverlapSteps = 288

// aliveSpan is a VM with its lifetime clipped to the observation window.
type aliveSpan struct {
	vm       *trace.VM
	from, to int
}

// spansOf clips a VM set to the observation window, dropping VMs that never
// live inside it.
func spansOf(t *trace.Trace, vms []*trace.VM) []aliveSpan {
	out := make([]aliveSpan, 0, len(vms))
	for _, v := range vms {
		from, to, ok := v.AliveRange(t.Grid.N)
		if !ok {
			continue
		}
		out = append(out, aliveSpan{vm: v, from: from, to: to})
	}
	return out
}
