package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func resultWith(workload string, rows ...row) result {
	return result{Workload: workload, Correct: true, Attempted: 1, EndToEnd: rows}
}

func TestCompareVerdicts(t *testing.T) {
	lower := func(v float64) row { return row{Name: "op_p50_ms", Unit: "ms", Better: "lower", Value: v, Bound: 0.10} }
	higher := func(v float64) row {
		return row{Name: "work_per_s", Unit: "1/s", Better: "higher", Value: v, Bound: 0.10}
	}
	unbounded := row{Name: "decide_p50_ms", Unit: "ms", Better: "lower", Value: 1}

	base := []result{resultWith("a", lower(10), higher(1000), unbounded), resultWith("b", lower(5))}
	for _, c := range []struct {
		name     string
		cand     []result
		breaches []string
	}{
		{"identical", base, nil},
		{"within bounds", []result{resultWith("a", lower(10.9), higher(905)), resultWith("b", lower(4))}, nil},
		{"lower-is-better breached", []result{resultWith("a", lower(11.2), higher(1000)), resultWith("b", lower(5))}, []string{"a/op_p50_ms"}},
		{"higher-is-better breached", []result{resultWith("a", lower(10), higher(890)), resultWith("b", lower(5))}, []string{"a/work_per_s"}},
		{"better is never a breach", []result{resultWith("a", lower(1), higher(9000)), resultWith("b", lower(1))}, nil},
		{"metric gone", []result{resultWith("a", lower(10)), resultWith("b", lower(5))}, []string{"a/work_per_s"}},
		{"workload gone", []result{resultWith("a", lower(10), higher(1000))}, []string{"b/op_p50_ms"}},
	} {
		var got []string
		for _, v := range compareResults(base, c.cand) {
			if v.Metric == "decide_p50_ms" {
				t.Errorf("%s: unbounded metric was judged", c.name)
			}
			if v.Breached {
				got = append(got, v.Workload+"/"+v.Metric)
			}
		}
		if strings.Join(got, ",") != strings.Join(c.breaches, ",") {
			t.Errorf("%s: breaches %v, want %v", c.name, got, c.breaches)
		}
	}

	if w := worsening("lower", 10, 11); !near(w, 0.1) {
		t.Errorf("worsening(lower, 10, 11) = %v, want 0.1", w)
	}
	if w := worsening("higher", 1000, 900); !near(w, 0.1) {
		t.Errorf("worsening(higher, 1000, 900) = %v, want 0.1", w)
	}
}

func TestCompareFilesExitVerdict(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rs ...result) string {
		path := filepath.Join(dir, name)
		if err := writeResults(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	r := row{Name: "op_p50_ms", Unit: "ms", Better: "lower", Value: 10, Bound: 0.10}
	worse := r
	worse.Value = 12
	base := write("base.json", resultWith("a", r))

	var out bytes.Buffer
	if breached, err := compareFiles(&out, base, write("same.json", resultWith("a", r))); err != nil || breached {
		t.Errorf("same result: breached=%v err=%v\n%s", breached, err, out.String())
	}
	out.Reset()
	if breached, err := compareFiles(&out, base, write("worse.json", resultWith("a", worse))); err != nil || !breached || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("20%% worse against a 10%% bound: breached=%v err=%v\n%s", breached, err, out.String())
	}
	failed := resultWith("a", r)
	failed.Correct, failed.Failed = false, 1
	if breached, err := compareFiles(&out, base, write("failed.json", failed)); err != nil || !breached {
		t.Errorf("an incorrect candidate run must fail the comparison: breached=%v err=%v", breached, err)
	}
	if _, err := compareFiles(&out, base, filepath.Join(dir, "absent.json")); err == nil {
		t.Error("a missing file compared without error")
	}
}
