package trace

import (
	"runtime"
	"sync"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/platform"
	"cloudlens/internal/sim"
	"cloudlens/internal/usage"
)

// cacheTestTrace builds a tiny two-VM trace on one node.
func cacheTestTrace(t *testing.T) *Trace {
	t.Helper()
	topo := platform.Topology{
		Regions: []platform.Region{{Name: "r1", TZOffsetMin: 0, US: true}},
		Clusters: []platform.Cluster{{
			ID: "c1", Region: "r1", Cloud: core.Private,
			Nodes: 4, NodesPerRack: 2,
			SKU: platform.SKU{Name: "test", Cores: 32, MemoryGB: 128},
		}},
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("topology: %v", err)
	}
	node := core.NodeRef{Cluster: "c1", Index: 0}
	tr := &Trace{
		Grid:     sim.WeekGrid(),
		Topology: topo,
		VMs: []VM{
			{
				ID: 1, Subscription: "s1", Service: "svc", Cloud: core.Private,
				Region: "r1", Node: node, Size: core.VMSize{Cores: 4, MemoryGB: 16},
				CreatedStep: -10, DeletedStep: sim.StepsPerWeek + 10,
				Usage: usage.Diurnal(0.1, 0.3, 13*60, 7),
			},
			{
				ID: 2, Subscription: "s1", Service: "svc", Cloud: core.Private,
				Region: "r1", Node: node, Size: core.VMSize{Cores: 2, MemoryGB: 8},
				CreatedStep: 100, DeletedStep: 500,
				Usage: usage.Stable(0.25, 11),
			},
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return tr
}

func TestSeriesCacheMatchesDirectMaterialization(t *testing.T) {
	tr := cacheTestTrace(t)
	c := NewSeriesCache(tr)
	for i := range tr.VMs {
		v := &tr.VMs[i]
		from, to, ok := v.AliveRange(tr.Grid.N)
		if !ok {
			t.Fatalf("VM %d not alive in window", v.ID)
		}
		want := v.Usage.Series(tr.Grid, from, to)
		got, base := c.Series(v)
		if base != from || len(got) != len(want) {
			t.Fatalf("VM %d: cached [%d,+%d), want [%d,+%d)", v.ID, base, len(got), from, len(want))
		}
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("VM %d step %d: cached %v != direct %v", v.ID, from+s, got[s], want[s])
			}
		}
		// Second call returns the same backing array (memoized, not rebuilt).
		again, _ := c.Series(v)
		if &again[0] != &got[0] {
			t.Fatalf("VM %d: series re-materialized on second call", v.ID)
		}
	}
}

func TestSeriesCacheForeignVMFallsBack(t *testing.T) {
	tr := cacheTestTrace(t)
	c := NewSeriesCache(tr)
	foreign := tr.VMs[0] // copy: pointer not in the cache index
	series, from := c.Series(&foreign)
	if from != 0 || len(series) != tr.Grid.N {
		t.Fatalf("foreign VM series [%d,+%d), want [0,+%d)", from, len(series), tr.Grid.N)
	}
}

func TestCachedNodeSeriesMatchesUncached(t *testing.T) {
	tr := cacheTestTrace(t)
	c := NewSeriesCache(tr)
	vms := tr.CloudVMs(core.Private)
	want := tr.NodeSeries(vms, 0, tr.Grid.N)
	got := c.NodeSeriesInto(nil, vms, 0, tr.Grid.N)
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: cached %v != direct %v", i, got[i], want[i])
		}
	}
	// Buffer reuse: a big-enough dst comes back with the same backing array.
	buf := make([]float64, tr.Grid.N)
	out := tr.NodeSeriesInto(buf, vms, 0, tr.Grid.N)
	if &out[0] != &buf[0] {
		t.Fatal("NodeSeriesInto reallocated despite sufficient buffer")
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("buffered step %d: %v != %v", i, out[i], want[i])
		}
	}
}

func TestSeriesCacheConcurrentAccess(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	tr := cacheTestTrace(t)
	c := NewSeriesCache(tr)
	var wg sync.WaitGroup
	results := make([][]float64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, _ := c.Series(&tr.VMs[0])
			results[g] = s
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		if &results[g][0] != &results[0][0] {
			t.Fatal("concurrent callers saw different materializations")
		}
	}
}
