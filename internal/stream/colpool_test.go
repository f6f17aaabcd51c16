package stream

import (
	"context"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/sim"
	"cloudlens/internal/trace"
	"cloudlens/internal/usage"
)

// colBatch builds a columnar step batch the way the replayer does: parallel
// VM and CPU columns, readings already rounded to float32.
func colBatch(step int, vms []int32, cpus []float32) StepBatch {
	return StepBatch{Step: step, VM: vms, CPU: cpus}
}

// TestColumnarBatchPath drives the column fast path of ObserveBatch
// directly — steal, duplicate-step append, and the extras-materialize
// branch — and pins that an ingestor fed columns reaches exactly the state
// of one fed the same readings in row form. float64(float32) widening is
// exact, so the two feeds observe bit-identical values and every fold
// counter must agree.
func TestColumnarBatchPath(t *testing.T) {
	feedCols := func(ing *Ingestor) {
		// Steps 0-2: both VMs on time, pure columns (the steal branch).
		for s := 0; s < 3; s++ {
			ing.ObserveBatch(colBatch(s,
				[]int32{0, 1}, []float32{float32(s+1) / 16, float32(s+1) / 32}))
		}
		// Step 3: VM 1 retires; its reading arrives as a duplicate batch for
		// the same step (the append branch), plus the deletion event.
		ing.ObserveBatch(colBatch(3, []int32{0}, []float32{0.25}))
		ing.ObserveBatch(StepBatch{Step: 3, VM: []int32{1}, CPU: []float32{0.125}, Deleted: []int32{1}})
		// Step 4: an on-time row-form stray parks in the slot's extras, so a
		// later column delivery for the same step takes the materialize
		// branch. The column entry is corrupt (>1), exercising the column
		// quarantine filter on that branch as well.
		ing.ObserveBatch(StepBatch{Step: 4, Late: []Sample{{VM: 0, Step: 4, CPU: 0.5}}})
		ing.ObserveBatch(colBatch(4, []int32{0}, []float32{1.5}))
		// Steps 5-7: VM 0 alone, columns.
		for s := 5; s < 8; s++ {
			ing.ObserveBatch(colBatch(s, []int32{0}, []float32{0.75}))
		}
		ing.Finish()
	}
	feedRows := func(ing *Ingestor) {
		row := func(vm, step int, c float32) Sample {
			return Sample{VM: int32(vm), Step: int32(step), CPU: float64(c)}
		}
		for s := 0; s < 3; s++ {
			ing.ObserveBatch(batchOf(s,
				row(0, s, float32(s+1)/16), row(1, s, float32(s+1)/32)))
		}
		ing.ObserveBatch(batchOf(3, row(0, 3, 0.25)))
		ing.ObserveBatch(StepBatch{Step: 3, Late: []Sample{row(1, 3, 0.125)}, Deleted: []int32{1}})
		ing.ObserveBatch(batchOf(4, row(0, 4, 0.5)))
		ing.ObserveBatch(batchOf(4, row(0, 4, 1.5)))
		for s := 5; s < 8; s++ {
			ing.ObserveBatch(batchOf(s, row(0, s, 0.75)))
		}
		ing.Finish()
	}

	tr := microTrace()
	colIng := newIngestor(tr, Options{MaxLatenessSteps: 2, FoldEverySteps: 10000}, shardMetrics(0))
	var recycledCols, recycledLate int
	colIng.SetRecycler(func(b StepBatch) {
		if b.VM != nil {
			recycledCols++
		}
		if b.Late != nil {
			recycledLate++
		}
	})
	feedCols(colIng)

	rowIng := newIngestor(microTrace(), Options{MaxLatenessSteps: 2, FoldEverySteps: 10000}, shardMetrics(0))
	feedRows(rowIng)

	for vm := 0; vm < 2; vm++ {
		ca, ra := colIng.accs[vm], rowIng.accs[vm]
		if (ca == nil) != (ra == nil) {
			t.Fatalf("VM %d tracked on one path only (col=%v row=%v)", vm, ca != nil, ra != nil)
		}
		if ca == nil {
			continue
		}
		if ca.ac.N() != ra.ac.N() || ca.next != ra.next {
			t.Errorf("VM %d: columnar N=%d next=%d, row N=%d next=%d",
				vm, ca.ac.N(), ca.next, ra.ac.N(), ra.next)
		}
	}
	if cf, rf := colIng.FaultStats(), rowIng.FaultStats(); cf != rf {
		t.Errorf("fault ledgers diverge: columnar %+v, row %+v", cf, rf)
	}
	if cn, rn := colIng.samplesIngested.Load(), rowIng.samplesIngested.Load(); cn != rn {
		t.Errorf("samples ingested diverge: columnar %d, row %d", cn, rn)
	}

	// Every column pair delivered must come back through the recycler:
	// seven stolen sets freed at fold (steps 0-3 and 5-7; step 4's corrupt
	// column never parks), plus two freed immediately on the append and
	// extras-materialize branches. The lone Late slice comes back too.
	if recycledCols != 9 {
		t.Errorf("recycler saw %d column batches, want 9", recycledCols)
	}
	if recycledLate != 1 {
		t.Errorf("recycler saw %d Late slices, want 1", recycledLate)
	}

	// The columnar fold counters move only on the fast path: seven owned
	// column sets (the appended step-3 duplicate rides along in step 3's
	// set; step 4 folds from extras alone).
	v := colIng.ingestVital()
	if v.BatchesFolded != 7 {
		t.Errorf("BatchesFolded = %d, want 7", v.BatchesFolded)
	}
	if rv := rowIng.ingestVital(); rv.BatchesFolded != 0 {
		t.Errorf("row-form feed recorded %d columnar folds", rv.BatchesFolded)
	}
}

// steadyTrace is a window with a constant active set: every VM predates
// the window and outlives it, so the replayer's column pool sees identical
// demand each step.
func steadyTrace() *trace.Trace {
	g := sim.WeekGrid()
	mk := func(id int, u usage.Params) trace.VM {
		return trace.VM{
			ID:           core.VMID(id),
			Subscription: "steady",
			Service:      "svc",
			Cloud:        core.Private,
			Region:       "r1",
			Size:         core.VMSize{Cores: 2, MemoryGB: 8},
			CreatedStep:  -10,
			DeletedStep:  g.N + 10,
			Usage:        u,
		}
	}
	return &trace.Trace{Grid: g, VMs: []trace.VM{
		mk(0, usage.Diurnal(0.3, 0.25, 14*60, 1)),
		mk(1, usage.Stable(0.5, 2)),
		mk(2, usage.Irregular(0.4, 3)),
	}}
}

// TestColPoolSteadyState is the free-list regression gate: on a constant
// active set, every column buffer after warm-up must come from the free
// list. The ledger proves it — fresh allocations are bounded by the pool's
// in-flight capacity (Buffer + MaxLatenessSteps + 2), nothing is dropped,
// and all remaining gets are reuses.
func TestColPoolSteadyState(t *testing.T) {
	tr := steadyTrace()
	p := NewPipeline(tr, Options{})
	p.Start(context.Background())
	if err := p.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}

	vitals := p.IngestVitals()
	if len(vitals) != 1 {
		t.Fatalf("%d vitals entries, want 1", len(vitals))
	}
	pool := vitals[0].Pool
	capacity := int64(8 + 3 + 2) // defaulted Buffer + MaxLatenessSteps + 2
	if pool.Allocated == 0 || pool.Allocated > capacity {
		t.Errorf("allocated %d column pairs, want 1..%d (warm-up only)", pool.Allocated, capacity)
	}
	if pool.Dropped != 0 {
		t.Errorf("steady active set dropped %d buffers", pool.Dropped)
	}
	// One get per replayed step; everything past warm-up must be a reuse.
	gets := int64(tr.Grid.N)
	if pool.Reused != gets-pool.Allocated {
		t.Errorf("reused %d of %d gets (allocated %d): free list not steady",
			pool.Reused, gets, pool.Allocated)
	}
	if pool.Returned < pool.Reused {
		t.Errorf("returned %d < reused %d: buffers leaking out of the cycle",
			pool.Returned, pool.Reused)
	}
}
