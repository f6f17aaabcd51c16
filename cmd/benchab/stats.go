package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Sides of a paired comparison: the reference commit and the commit under
// test, HEAD.
const (
	sideRef = "ref"
	sideNew = "new"
)

// order returns which side runs first in pair i: the reference in even
// pairs, HEAD in odd ones, so a drift in the machine's state
// (thermal, page cache, a neighbour's load) falls on both sides alike.
func order(i int) [2]string {
	if i%2 == 0 {
		return [2]string{sideRef, sideNew}
	}
	return [2]string{sideNew, sideRef}
}

// metric is one end-to-end row of a cloudbench result file.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
}

// runResult is the part of one cloudbench result file this program reads,
// plus the CPU time the run took.
type runResult struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Correct    bool              `json:"correct"`
	Env        json.RawMessage   `json:"environment"`
	Iterations map[string]int    `json:"iterations"`
	Hashes     map[string]string `json:"hashes"`
	EndToEnd   []metric          `json:"endToEnd"`
	// CPUSeconds is the user+sys CPU time of the whole child run, build
	// and setup included, as the operating system accounted it; 0 when
	// not measured. It is not in the result file.
	CPUSeconds float64 `json:"-"`
}

// cpuPerIteration names the clock-free cost row reported beside the
// end-to-end metrics: a run's CPU seconds over the iterations its result
// file counts (summed over the kinds it counts). Unlike the wall-clock
// metrics it does not depend on how many cores were idle.
var cpuPerIteration = metric{Name: "cpu_s_per_iter", Unit: "s", Better: "lower"}

// readResult reads the single-workload result file `bench/run.sh -out`
// writes.
func readResult(path string) (runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return runResult{}, err
	}
	var f struct {
		Results []runResult `json:"results"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return runResult{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Results) != 1 {
		return runResult{}, fmt.Errorf("%s: %d results, want one workload", path, len(f.Results))
	}
	return f.Results[0], nil
}

func (r runResult) value(name string) (float64, bool) {
	if name == cpuPerIteration.Name {
		n := 0
		for _, k := range r.Iterations {
			n += k
		}
		if r.CPUSeconds <= 0 || n == 0 {
			return 0, false
		}
		return r.CPUSeconds / float64(n), true
	}
	for _, m := range r.EndToEnd {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// pair is one reference run and one new run made back to back.
type pair struct {
	First    string // the side that ran first
	Ref, New runResult
}

// summary is the paired statistics of one metric over every pair.
type summary struct {
	Name, Unit, Better string
	// Ratios are new over ref, one per pair, in pair order.
	Ratios []float64
	// Q1, Median and Q3 are the quartiles of the ratios.
	Q1, Median, Q3 float64
	// Wins counts pairs where new is strictly better; Ties pairs where the
	// two are equal. P is the one-sided sign test's p-value for Wins among
	// the untied pairs under the null of no difference.
	Wins, Ties int
	P          float64
	// RefMedian, RefIQR and NewMedian are the medians of the raw values
	// and the spread of the reference's runs (q3 - q1); Beyond is whether
	// the medians differ, in the better direction, by more than RefIQR.
	RefMedian, RefIQR, NewMedian float64
	Beyond                       bool
}

// summarize computes each end-to-end metric's paired statistics, in the
// order the reference's result file lists them, then the CPU seconds per
// iteration. A metric either side lacks in some pair is left out.
func summarize(pairs []pair) []summary {
	if len(pairs) == 0 {
		return nil
	}
	var out []summary
	metrics := append(append([]metric(nil), pairs[0].Ref.EndToEnd...), cpuPerIteration)
	for _, m := range metrics {
		s := summary{Name: m.Name, Unit: m.Unit, Better: m.Better}
		var refs, news []float64
		complete := true
		for _, p := range pairs {
			r, ok1 := p.Ref.value(m.Name)
			n, ok2 := p.New.value(m.Name)
			if !ok1 || !ok2 {
				complete = false
				break
			}
			refs, news = append(refs, r), append(news, n)
			s.Ratios = append(s.Ratios, n/r)
			switch {
			case n == r:
				s.Ties++
			case (m.Better == "higher") == (n > r):
				s.Wins++
			}
		}
		if !complete {
			continue
		}
		s.Q1, s.Median, s.Q3 = quartiles(s.Ratios)
		s.P = signTestP(s.Wins, len(pairs)-s.Ties)
		var rq1, rq3 float64
		rq1, s.RefMedian, rq3 = quartiles(refs)
		s.RefIQR = rq3 - rq1
		_, s.NewMedian, _ = quartiles(news)
		gain := s.RefMedian - s.NewMedian
		if m.Better == "higher" {
			gain = -gain
		}
		s.Beyond = gain > s.RefIQR
		out = append(out, s)
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" method of Python's statistics.quantiles(xs, n=4)
// (rank i*(n+1)/4, interpolated, clamped to the ends), the method
// cloudbench reports its spreads with.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// signTestP is the one-sided sign test: the probability of at least wins
// successes in n fair coin flips.
func signTestP(wins, n int) float64 {
	if n <= 0 {
		return 1
	}
	p := 0.0
	for k := wins; k <= n; k++ {
		p += math.Exp(lgammaInt(n+1) - lgammaInt(k+1) - lgammaInt(n-k+1) - float64(n)*math.Ln2)
	}
	return min(p, 1)
}

func lgammaInt(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}

// report prints the paired statistics of every metric, then every raw run.
func report(w io.Writer, pairs []pair, sums []summary) {
	fmt.Fprintf(w, "%-14s %-6s %-27s %7s %9s  %s\n", "metric", "better", "new/ref median (q1-q3)", "wins", "p(sign)", "medians ref -> new (ref IQR)")
	for _, s := range sums {
		beyond := ""
		if s.Beyond {
			beyond = "  beyond ref IQR"
		}
		fmt.Fprintf(w, "%-14s %-6s %7.3f (%6.3f - %6.3f)    %3d/%-3d %9.3g  %.4g -> %.4g %s (%.3g)%s\n",
			s.Name, s.Better, s.Median, s.Q1, s.Q3, s.Wins, len(s.Ratios), s.P,
			s.RefMedian, s.NewMedian, s.Unit, s.RefIQR, beyond)
	}
	fmt.Fprintln(w, "raw runs:")
	var names []string
	for _, s := range sums {
		names = append(names, s.Name)
	}
	fmt.Fprintf(w, "%-5s %-4s %-8s %s\n", "pair", "side", "correct", strings.Join(names, " "))
	for i, p := range pairs {
		for _, side := range order(i) {
			r := p.Ref
			if side == sideNew {
				r = p.New
			}
			vals := make([]string, len(names))
			for j, n := range names {
				v, _ := r.value(n)
				vals[j] = fmt.Sprintf("%.6g", v)
			}
			fmt.Fprintf(w, "%-5d %-4s %-8v %s\n", i, side, r.Correct, strings.Join(vals, " "))
		}
	}
}

// compareHashes checks every run's output hashes against the first
// reference run's: both commits must compute the same outputs, or the
// timings compare different work. It returns the one "hashes:" line the
// report prints and whether every hash was equal. A key either run lacks
// counts as different.
func compareHashes(pairs []pair) (string, bool) {
	if len(pairs) == 0 {
		return "hashes: no pairs", true
	}
	want := pairs[0].Ref.Hashes
	var diffs []string
	for i, p := range pairs {
		for _, side := range order(i) {
			got := p.Ref.Hashes
			if side == sideNew {
				got = p.New.Hashes
			}
			keys := make([]string, 0, len(want)+len(got))
			for k := range want {
				keys = append(keys, k)
			}
			for k := range got {
				if _, ok := want[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				if got[k] != want[k] {
					diffs = append(diffs, fmt.Sprintf("%s differs on %s in pair %d (%s, first ref run %s)",
						k, side, i, orMissing(got[k]), orMissing(want[k])))
				}
			}
		}
	}
	if len(diffs) > 0 {
		return "hashes: " + strings.Join(diffs, "; "), false
	}
	return fmt.Sprintf("hashes: equal in all %d pairs", len(pairs)), true
}

func orMissing(h string) string {
	if h == "" {
		return "missing"
	}
	return h
}

// record is one JSON line of the run log: one run of one side.
type record struct {
	Label    string             `json:"label"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Pair     int                `json:"pair"`
	Position int                `json:"position"` // 0: ran first in its pair
	Side     string             `json:"side"`
	Commit   string             `json:"commit"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
	// CPUSeconds and Iterations give the run's cpu_s_per_iter.
	CPUSeconds float64           `json:"cpu_s,omitempty"`
	Iterations map[string]int    `json:"iterations,omitempty"`
	Hashes     map[string]string `json:"hashes,omitempty"`
	Env        json.RawMessage   `json:"environment"`
}

func newRecord(label string, pairIdx, position int, side, commit string, r runResult) record {
	rec := record{
		Label: label, Workload: r.Workload, Seed: r.Seed, Seconds: r.Seconds,
		Pair: pairIdx, Position: position, Side: side, Commit: commit,
		Correct: r.Correct, Metrics: make(map[string]float64, len(r.EndToEnd)),
		CPUSeconds: r.CPUSeconds, Iterations: r.Iterations, Hashes: r.Hashes, Env: r.Env,
	}
	for _, m := range r.EndToEnd {
		rec.Metrics[m.Name] = m.Value
	}
	return rec
}
