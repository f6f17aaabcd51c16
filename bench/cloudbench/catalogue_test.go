package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json declares to the harness what the catalogue holds in
// code; the two must say the same.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the catalogue", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d: declared %q, catalogue %q (or their reasons differ)", i, d.Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the harness allows 200", w.Name, len(w.Why))
		}
		for _, slot := range []string{"work_per_s", "op_p50_ms", "op_tail_ms"} {
			if w.Slots[slot] == "" {
				t.Errorf("workload %s does not say what %s means on it", w.Name, slot)
			}
		}
	}

	same := func(kind string, declared []metric, want []metricDef, bounded bool) {
		if len(declared) != len(want) {
			t.Fatalf("%s: %d declared, %d in the catalogue", kind, len(declared), len(want))
		}
		for i, w := range want {
			d := declared[i]
			if d.Name != w.Name || d.Unit != w.Unit || d.Better != w.Better {
				t.Errorf("%s %d: declared %+v, catalogue %+v", kind, i, d, w)
			}
			if bounded && (d.Bound == nil || *d.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25) {
				t.Errorf("%s %s: bound declared %v, catalogue %v (must be in (0, 0.25])", kind, w.Name, d.Bound, w.Bound)
			}
			if !bounded && d.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, w.Name)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the harness allows 128", len(perLayer))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) breaks the harness's naming rules or repeats", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better=%q", d.Name, d.Better)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("the harness requires setup_s, in s, lower is better")
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", decl.RunSeconds)
	}
}
