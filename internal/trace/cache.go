package trace

import (
	"sync"

	"cloudlens/internal/obs"
)

// Series-cache metrics, pre-resolved at init. A miss is a materialization
// (the sync.Once body ran, or the VM was outside the cache's trace); a hit
// returns an already materialized series.
var (
	cacheHits = obs.Default.Counter("cloudlens_seriescache_hits_total",
		"Series requests answered from an already materialized entry.")
	cacheMisses = obs.Default.Counter("cloudlens_seriescache_misses_total",
		"Series requests that had to materialize the series.")
)

// SeriesCache memoizes materialized per-VM utilization series for one
// trace. Usage models are pure functions of their parameters (see package
// usage), so a VM's series never changes and can be computed once no matter
// how many consumers read it.
//
// Nothing in the analysis pipeline uses it any more: Characterize reads each
// series once into the small per-VM facts of analyze.SeriesFacts and keeps
// no series. The cache and its hit and miss counters remain only because
// cloudbench's batch-week workload builds one per figure and calls the
// figures' ...With shims, which ignore it. Bench only; ROADMAP 17(f)
// deletes.
//
// The cache is safe for concurrent use: each VM's slot materializes under
// its own sync.Once, so parallel consumers racing for the same VM compute
// it once and share the result. Entries hold the series over the VM's
// lifetime clipped to the observation window, so a cache that every VM
// passes through holds 8 bytes per alive VM-step (26.3 M steps, 210 MB, for
// the default seed-42 week). Callers that need the memory back drop the
// reference; there is nothing to invalidate, because the underlying Params
// never change.
type SeriesCache struct {
	t       *Trace
	index   map[*VM]int
	entries []cacheEntry
}

type cacheEntry struct {
	once   sync.Once
	from   int
	series []float64
}

// NewSeriesCache returns an empty cache over the trace's VMs. Nothing is
// materialized until first use.
func NewSeriesCache(t *Trace) *SeriesCache {
	c := &SeriesCache{
		t:       t,
		index:   make(map[*VM]int, len(t.VMs)),
		entries: make([]cacheEntry, len(t.VMs)),
	}
	for i := range t.VMs {
		c.index[&t.VMs[i]] = i
	}
	return c
}

// Trace returns the trace the cache was built over.
func (c *SeriesCache) Trace() *Trace { return c.t }

// Series returns the VM's utilization series over its lifetime clipped to
// the window, materializing it on first use, plus the step the series
// starts at. The returned slice is shared — callers must not modify it.
// A VM that never lives inside the window yields (nil, 0). VMs from a
// different trace are materialized without caching.
func (c *SeriesCache) Series(v *VM) (series []float64, from int) {
	i, ok := c.index[v]
	if !ok {
		cacheMisses.Inc()
		f, to, alive := v.AliveRange(c.t.Grid.N)
		if !alive {
			return nil, 0
		}
		return v.Usage.Series(c.t.Grid, f, to), f
	}
	e := &c.entries[i]
	materialized := false
	e.once.Do(func() {
		materialized = true
		f, to, alive := v.AliveRange(c.t.Grid.N)
		if !alive {
			return
		}
		e.from = f
		e.series = v.Usage.Series(c.t.Grid, f, to)
	})
	if materialized {
		cacheMisses.Inc()
	} else {
		cacheHits.Inc()
	}
	return e.series, e.from
}

// NodeSeriesInto computes a node's utilization over [from, to) like
// Trace.NodeSeriesInto, but sums the cached per-VM series instead of
// re-evaluating the usage models. Summation visits VMs in slice order and
// steps in ascending order — the exact float addition order of the uncached
// path — so results are bit-identical.
func (c *SeriesCache) NodeSeriesInto(dst []float64, vmsOnNode []*VM, from, to int) []float64 {
	from, to = c.t.clipWindow(from, to)
	dst, nodeCores := c.t.prepNodeSeries(dst, vmsOnNode, from, to)
	if dst == nil {
		return nil
	}
	for _, v := range vmsOnNode {
		series, base := c.Series(v)
		if series == nil {
			continue
		}
		lo, hi := base, base+len(series)
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		w := float64(v.Size.Cores)
		for s := lo; s < hi; s++ {
			dst[s-from] += series[s-base] * w
		}
	}
	if nodeCores > 0 {
		for i := range dst {
			dst[i] /= float64(nodeCores)
		}
	}
	return dst
}
