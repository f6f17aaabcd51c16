// Package servertest holds the fixtures shared by the tests of the v1 HTTP
// surface and of its two commands: a compact hand-built week and the
// replay wiring wkbserver uses.
package servertest

import (
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/sim"
	"cloudlens/internal/stream"
	"cloudlens/internal/trace"
	"cloudlens/internal/usage"
)

// Trace is a compact hand-built week exercising both clouds and every
// route's data dependencies (multi-region spread, qualified and short
// lived VMs).
func Trace() *trace.Trace {
	g := sim.WeekGrid()
	mk := func(id int, sub string, cloud core.Cloud, region string,
		created, deleted int, u usage.Params) trace.VM {
		return trace.VM{
			ID:           core.VMID(id),
			Subscription: core.SubscriptionID(sub),
			Service:      "svc",
			Cloud:        cloud,
			Region:       region,
			Size:         core.VMSize{Cores: 4, MemoryGB: 16},
			CreatedStep:  created,
			DeletedStep:  deleted,
			Usage:        u,
		}
	}
	n := g.N
	return &trace.Trace{
		Grid: g,
		VMs: []trace.VM{
			mk(0, "sub-a", core.Private, "r1", -10, n+1, usage.Diurnal(0.3, 0.25, 14*60, 1)),
			mk(1, "sub-a", core.Private, "r2", 0, n, usage.Diurnal(0.3, 0.25, 14*60, 2)),
			mk(2, "sub-a", core.Private, "r1", 100, 120, usage.Stable(0.5, 3)),
			mk(3, "sub-b", core.Public, "r1", 0, n+5, usage.Stable(0.2, 4)),
			mk(4, "sub-b", core.Public, "r1", 500, 900, usage.Irregular(0.4, 5)),
		},
	}
}

// Live mirrors wkbserver's replay wiring: the read source is bound to the
// engine before the pipeline starts. The source is what server.New reads
// a replay through.
func Live(tr *trace.Trace, opts stream.Options) (*stream.Pipeline, *stream.ReadSource) {
	pipe := stream.NewPipeline(tr, opts)
	readSrc := stream.NewReadSource(time.Now)
	readSrc.Bind(pipe.Engine())
	return pipe, readSrc
}
