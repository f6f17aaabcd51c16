package cloudlens

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"cloudlens/internal/analyze"
)

// The parallel pipeline promises results bit-identical to a sequential run:
// no analysis accumulates floats across workers, the series facts pass
// writes only the slots of the VMs it visits, and generator stages
// concatenate their specs in the sequential append order. These tests pin that contract by comparing
// marshaled JSON — any reordered float addition, racy map fill, or
// worker-count-dependent code path shows up as a byte difference.

// determinismConfig is a scaled-down universe so the tests stay fast while
// still exercising every stage and figure.
func determinismConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Scale = 0.25
	return cfg
}

func marshalCharacterization(t *testing.T, tr *Trace) []byte {
	t.Helper()
	j, err := json.Marshal(Characterize(tr))
	if err != nil {
		t.Fatalf("marshal characterization: %v", err)
	}
	return j
}

// withGOMAXPROCS runs f under a pinned worker count.
func withGOMAXPROCS(t *testing.T, n int, f func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

func TestGenerateIsDeterministicAcrossWorkerCounts(t *testing.T) {
	marshalTrace := func() []byte {
		tr, err := Generate(determinismConfig(7))
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		j, err := json.Marshal(tr)
		if err != nil {
			t.Fatalf("marshal trace: %v", err)
		}
		return j
	}
	var serial, parallel4, again []byte
	withGOMAXPROCS(t, 1, func() { serial = marshalTrace() })
	withGOMAXPROCS(t, 4, func() { parallel4 = marshalTrace(); again = marshalTrace() })
	if !bytes.Equal(serial, parallel4) {
		t.Fatal("generated trace differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
	if !bytes.Equal(parallel4, again) {
		t.Fatal("generated trace differs between two identical parallel runs")
	}
}

func TestCharacterizeIsDeterministicAcrossWorkerCounts(t *testing.T) {
	tr, err := Generate(determinismConfig(7))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var serial, parallel4, again []byte
	withGOMAXPROCS(t, 1, func() { serial = marshalCharacterization(t, tr) })
	withGOMAXPROCS(t, 4, func() { parallel4 = marshalCharacterization(t, tr) })
	withGOMAXPROCS(t, 4, func() { again = marshalCharacterization(t, tr) })
	if !bytes.Equal(serial, parallel4) {
		t.Fatal("characterization differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
	if !bytes.Equal(parallel4, again) {
		t.Fatal("characterization differs between two identical parallel runs")
	}
}

// TestCharacterizeMatchesStandaloneFigures holds Characterize, whose one
// facts pass records every series figure's facts at once, to each figure
// computed alone, whose pass records only the facts that figure reads.
func TestCharacterizeMatchesStandaloneFigures(t *testing.T) {
	tr, err := Generate(determinismConfig(7))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ch := Characterize(tr)
	pairs := []struct {
		name                 string
		together, standalone interface{}
	}{
		{"fig5Samples", ch.Fig5Samples, analyze.ComputeFig5Samples(tr)},
		{"fig5d", ch.Fig5d, analyze.ComputeFig5d(tr)},
		{"fig6Weekly", ch.Fig6Weekly, analyze.ComputeFig6Weekly(tr)},
		{"fig6Daily", ch.Fig6Daily, analyze.ComputeFig6Daily(tr)},
		{"fig7a", ch.Fig7a, analyze.ComputeFig7a(tr)},
		{"fig7b", ch.Fig7b, analyze.ComputeFig7b(tr)},
		{"fig7c", ch.Fig7c, analyze.ComputeFig7c(tr, "")},
	}
	for _, p := range pairs {
		cj, err := json.Marshal(p.together)
		if err != nil {
			t.Fatalf("%s: marshal Characterize's figure: %v", p.name, err)
		}
		uj, err := json.Marshal(p.standalone)
		if err != nil {
			t.Fatalf("%s: marshal standalone figure: %v", p.name, err)
		}
		if !bytes.Equal(cj, uj) {
			t.Errorf("%s: Characterize's result differs from the figure computed alone", p.name)
		}
	}
}

// TestCharacterizeRetainsNoSeries bounds what one Characterize call
// allocates: below half of 8 bytes per alive VM-step, the size of every
// VM's series held at once. The series figures keep a few values per VM or
// per VM-hour, and materialize each series into reused per-worker buffers.
func TestCharacterizeRetainsNoSeries(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops the detector's pooled scratch at random; allocation totals mean nothing")
	}
	tr, err := Generate(determinismConfig(7))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var steps uint64
	for i := range tr.VMs {
		if from, to, ok := tr.VMs[i].AliveRange(tr.Grid.N); ok {
			steps += uint64(to - from)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Characterize(tr)
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	if limit := 8 * steps / 2; allocated >= limit {
		t.Fatalf("Characterize allocated %d B; want < %d B (half of 8 B x %d alive VM-steps)", allocated, limit, steps)
	}
	t.Logf("Characterize allocated %d B over %d alive VM-steps", allocated, steps)
}
