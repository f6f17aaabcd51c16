package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// fixturePairs reads the three pairs under testdata, each file in the
// format `bench/run.sh -out` writes.
func fixturePairs(t *testing.T) []pair {
	t.Helper()
	var pairs []pair
	for i := 0; i < 3; i++ {
		p := pair{First: order(i)[0]}
		for _, side := range order(i) {
			r, err := readResult(filepath.Join("testdata", "pair"+string(rune('0'+i))+"-"+side+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if side == sideRef {
				p.Ref = r
			} else {
				p.New = r
			}
		}
		pairs = append(pairs, p)
	}
	return pairs
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9*math.Max(1, math.Abs(b)) }

func TestOrderAlternates(t *testing.T) {
	for i := 0; i < 6; i++ {
		o := order(i)
		if o[0] == o[1] {
			t.Fatalf("pair %d runs %s twice", i, o[0])
		}
		if want := []string{sideRef, sideNew}[i%2]; o[0] != want {
			t.Errorf("pair %d runs %s first, want %s", i, o[0], want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1.7, 1.5, 1.55}, 1.5, 1.55, 1.7},
		{[]float64{2}, 2, 2, 2},
	} {
		q1, med, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestSignTestP(t *testing.T) {
	for _, c := range []struct {
		wins, n int
		p       float64
	}{
		{10, 10, 1.0 / 1024},
		{9, 10, 11.0 / 1024},
		{3, 3, 1.0 / 8},
		{1, 2, 3.0 / 4},
		{0, 5, 1},
		{0, 0, 1},
	} {
		if got := signTestP(c.wins, c.n); !near(got, c.p) {
			t.Errorf("signTestP(%d, %d) = %v, want %v", c.wins, c.n, got, c.p)
		}
	}
}

func TestSummarizeFixturePairs(t *testing.T) {
	sums := summarize(fixturePairs(t))
	if len(sums) != 3 {
		t.Fatalf("%d metrics summarized, want 3", len(sums))
	}
	byName := map[string]summary{}
	for _, s := range sums {
		byName[s.Name] = s
	}

	w := byName["work_per_s"]
	if w.Wins != 3 || w.Ties != 0 || !near(w.P, 1.0/8) {
		t.Errorf("work_per_s: wins %d ties %d p %v, want 3, 0, 0.125", w.Wins, w.Ties, w.P)
	}
	for i, want := range []float64{5.1 / 3.0, 4.8 / 3.2, 4.5 / 2.9} {
		if !near(w.Ratios[i], want) {
			t.Errorf("work_per_s ratio %d = %v, want %v (new over ref, in pair order)", i, w.Ratios[i], want)
		}
	}
	if !near(w.Median, 4.5/2.9) || !near(w.Q1, 1.5) || !near(w.Q3, 1.7) {
		t.Errorf("work_per_s ratio quartiles %v %v %v", w.Q1, w.Median, w.Q3)
	}
	if !near(w.RefMedian, 3.0e6) || !near(w.RefIQR, 0.3e6) || !near(w.NewMedian, 4.8e6) || !w.Beyond {
		t.Errorf("work_per_s medians %v -> %v, ref IQR %v, beyond %v", w.RefMedian, w.NewMedian, w.RefIQR, w.Beyond)
	}

	// Lower is better: one loss (2.2 vs 2.0), one tie, one win (2.4 vs 2.5).
	p := byName["op_p50_ms"]
	if p.Wins != 1 || p.Ties != 1 || !near(p.P, 3.0/4) || p.Beyond {
		t.Errorf("op_p50_ms: wins %d ties %d p %v beyond %v, want 1, 1, 0.75, false", p.Wins, p.Ties, p.P, p.Beyond)
	}
}

func TestRecordCarriesRunAndEnvironment(t *testing.T) {
	r := fixturePairs(t)[1].New
	line, err := json.Marshal(newRecord("lbl", 1, 0, sideNew, "abc123", r))
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	env, _ := back["environment"].(map[string]any)
	metrics, _ := back["metrics"].(map[string]any)
	if back["side"] != sideNew || back["pair"] != 1.0 || back["position"] != 0.0 || back["commit"] != "abc123" ||
		back["workload"] != "ingest-clean" || back["seed"] != 42.0 || env["cpuModel"] != "Test CPU" ||
		metrics["work_per_s"] != 4.8e6 {
		t.Errorf("record %s", line)
	}
}

func TestReportListsEveryRun(t *testing.T) {
	pairs := fixturePairs(t)
	var buf bytes.Buffer
	report(&buf, pairs, summarize(pairs))
	out := buf.String()
	if !strings.Contains(out, "3/3") || strings.Count(out, "\n") != 1+3+2+6 {
		t.Errorf("report:\n%s", out)
	}
}

// TestCPUSecondsPerIteration: the CPU seconds a run took, over its result
// file's iterations, are summarized as one more lower-is-better row, in the
// report and in the run log, and left out when a run was not measured.
func TestCPUSecondsPerIteration(t *testing.T) {
	pairs := fixturePairs(t)
	// Every fixture counts 6 iterations; the first new run counts 8.
	pairs[0].New.Iterations = map[string]int{"replay": 8}
	for i, cpu := range [][2]float64{{30, 32}, {30, 27}, {33, 30}} {
		pairs[i].Ref.CPUSeconds, pairs[i].New.CPUSeconds = cpu[0], cpu[1]
	}
	sums := summarize(pairs)
	if len(sums) != 4 || sums[3].Name != "cpu_s_per_iter" {
		t.Fatalf("summaries %+v, want the three end-to-end metrics then cpu_s_per_iter", sums)
	}
	c := sums[3]
	for i, want := range []float64{(32.0 / 8) / (30.0 / 6), 27.0 / 30, 30.0 / 33} {
		if !near(c.Ratios[i], want) {
			t.Errorf("cpu_s_per_iter ratio %d = %v, want %v", i, c.Ratios[i], want)
		}
	}
	if c.Better != "lower" || c.Wins != 3 || !near(c.RefMedian, 5) || !near(c.NewMedian, 4.5) {
		t.Errorf("cpu_s_per_iter: better %s, wins %d, medians %v -> %v; want lower, 3, 5 -> 4.5", c.Better, c.Wins, c.RefMedian, c.NewMedian)
	}
	var buf bytes.Buffer
	report(&buf, pairs, sums)
	if out := buf.String(); !strings.Contains(out, "cpu_s_per_iter lower") || !strings.Contains(out, " 82 4\n") {
		t.Errorf("report does not carry the CPU row and the raw per-iteration values:\n%s", out)
	}
	line, err := json.Marshal(newRecord("lbl", 0, 1, sideNew, "abc123", pairs[0].New))
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		CPU        float64        `json:"cpu_s"`
		Iterations map[string]int `json:"iterations"`
	}
	if err := json.Unmarshal(line, &back); err != nil || back.CPU != 32 || back.Iterations["replay"] != 8 {
		t.Errorf("record %s", line)
	}

	pairs[1].New.CPUSeconds = 0
	for _, s := range summarize(pairs) {
		if s.Name == "cpu_s_per_iter" {
			t.Errorf("cpu_s_per_iter summarized although pair 1's new run was not measured")
		}
	}
}

// TestCompareHashes: the fixtures' runs all carry one fingerprint and
// compare equal; a run whose fingerprint differs, or that lacks a key the
// first reference run has, is named with its side and pair.
func TestCompareHashes(t *testing.T) {
	pairs := fixturePairs(t)
	line, ok := compareHashes(pairs)
	if !ok || line != "hashes: equal in all 3 pairs" {
		t.Errorf("fixture pairs: %q, equal %v", line, ok)
	}

	pairs[2].New.Hashes = map[string]string{"kb_fingerprint": "fnv1a:0000000000000000"}
	pairs[1].Ref.Hashes = map[string]string{}
	line, ok = compareHashes(pairs)
	want := "hashes: kb_fingerprint differs on ref in pair 1 (missing, first ref run fnv1a:5044ad1b3f8e3c87); " +
		"kb_fingerprint differs on new in pair 2 (fnv1a:0000000000000000, first ref run fnv1a:5044ad1b3f8e3c87)"
	if ok || line != want {
		t.Errorf("changed pairs: equal %v, line\n%s\nwant\n%s", ok, line, want)
	}

	pairs = fixturePairs(t)
	pairs[0].New.Hashes = map[string]string{"kb_fingerprint": "fnv1a:5044ad1b3f8e3c87", "extra": "x"}
	if line, ok := compareHashes(pairs); ok || !strings.Contains(line, "extra differs on new in pair 0 (x, first ref run missing)") {
		t.Errorf("a key only the new run has: equal %v, %q", ok, line)
	}
}
