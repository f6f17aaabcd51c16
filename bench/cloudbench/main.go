// Command cloudbench is the repository's benchmark: four workloads over
// the public API of cloudlens and its internal packages and over the
// built wkbserver binary, end-to-end metrics with regression bounds, and
// a per-layer cost ledger whose spans are recorded from this program
// around calls into each layer. bench/README.md is the manual;
// BENCHMARK.json at the root of the repository declares the metrics.
//
// Usage (from the root of the repository, normally through bench/run.sh):
//
//	cloudbench --workload W --seed N --seconds S --trace 0|1   one workload; the last stdout line is the harness's JSON object
//	cloudbench [-seed N] [-seconds S] [-trace 1] [-smoke] [-out F]   all four, each in a fresh child process, one result file
//	cloudbench -compare a.json b.json                            ratios of b against a, non-zero exit on a breached bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// buildDir holds everything a run writes: binaries, checkpoints, span
// files, results. It is the directory the harness sets aside for build
// output, and .gitignore names it.
const buildDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: batch-week | ingest-clean | ingest-rough | serve-live (empty: all four, each in a child process)")
		seed     = flag.Uint64("seed", 42, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 25, "how long one workload measures")
		trace    = flag.Int("trace", 0, "1: record spans around each layer and report the per-layer metrics instead of the end-to-end ones")
		smoke    = flag.Bool("smoke", false, "one tenth the size, one iteration, 3 s phases; every correctness check stays on")
		out      = flag.String("out", "", "write the result file here (default "+buildDir+"/result.json for a full run)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: cloudbench -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: cloudbench -compare a.json b.json")
		}
		breached, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if breached {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, "-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatal(2, "-seconds must be positive")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(2, "%v", err)
	}

	if *workload == "" {
		if err := runSuite(*seed, *seconds, *trace, *smoke, *out); err != nil {
			fatal(1, "%v", err)
		}
		return
	}

	def, ok := workloadByName(*workload)
	if !ok {
		fatal(2, "unknown workload %q", *workload)
	}
	r := newRun(def, *seed, *seconds, *trace == 1, *smoke)
	err := def.run(r)
	if err != nil {
		// A workload that could not run to the end has no result to
		// print; the harness sees the non-zero exit.
		fatal(1, "%s: %v", def.Name, err)
	}
	res := r.result()
	printResult(os.Stdout, res)
	if *out != "" {
		if err := writeResults(*out, []result{res}); err != nil {
			fatal(1, "%v", err)
		}
	}
	fmt.Println(string(res.contractLine()))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cloudbench: "+format+"\n", args...)
	os.Exit(code)
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// run is one workload run in progress: its parameters, the clock set-up
// is measured against, and everything the workload reports.
type run struct {
	def     workloadDef
	seed    uint64
	seconds float64
	traced  bool
	smoke   bool
	size    size
	began   time.Time // when set-up began
	rec     *recorder // nil unless traced

	setups     []float64 // seconds, one per set-up performed
	attempted  int
	failed     int
	checks     []check
	hashes     map[string]string
	iterations map[string]int
	slots      map[string]row
	named      []row
	layers     map[string]float64
	spanFile   string
}

func newRun(def workloadDef, seed uint64, seconds float64, traced, smoke bool) *run {
	r := &run{
		def: def, seed: seed, seconds: seconds, traced: traced, smoke: smoke,
		size: fullSize, began: processStart(),
		hashes: map[string]string{}, iterations: map[string]int{},
		slots: map[string]row{}, layers: map[string]float64{},
	}
	if smoke {
		r.size = smokeSize
	}
	if traced {
		r.rec = newRecorder(def.Name)
	}
	return r
}

// processStart is when this run's set-up began: the instant bench/run.sh
// started (it passes CLOUDBENCH_T0, so building this program counts as
// set-up), else now.
func processStart() time.Time {
	if s := os.Getenv("CLOUDBENCH_T0"); s != "" {
		if sec, err := strconv.ParseFloat(s, 64); err == nil {
			return time.Unix(0, int64(sec*1e9))
		}
	}
	return time.Now()
}

// setupPasses is how often a workload sets up in one run. The first pass
// is timed from r.began and so carries the build; setup_s is the median
// pass, steadier than a single one.
const setupPasses = 3

// setup runs the workload's set-up function setupPasses times (once under
// -smoke), timing each pass; what the last pass built is what gets
// measured. undo, when not nil, tears down what an earlier pass built,
// outside the timing.
func (r *run) setup(fn func() error, undo func() error) error {
	passes := setupPasses
	if r.smoke {
		passes = 1
	}
	for pass := 1; pass <= passes; pass++ {
		if pass > 1 {
			if undo != nil {
				if err := undo(); err != nil {
					return err
				}
			}
			r.began = time.Now()
		}
		if err := fn(); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(r.began).Seconds())
	}
	return nil
}

// check records one correctness check; a failed one makes the run
// incorrect and counts as one failed operation.
func (r *run) check(name string, ok bool, format string, args ...interface{}) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		fmt.Fprintf(os.Stderr, "cloudbench: %s: check %s failed: %s\n", r.def.Name, name, c.Detail)
	}
	r.checks = append(r.checks, c)
}

// slot reports one end-to-end slot. value NaN means the median of samples.
func (r *run) slot(name string, value float64, samples []float64, kind sampleKind) {
	for _, d := range endToEnd {
		if d.Name == name {
			row := rowOf(d, value, samples, kind)
			row.Means = r.def.Slots[name]
			r.slots[name] = row
			return
		}
	}
	panic("cloudbench: unknown end-to-end metric " + name)
}

// name reports one of the issue's named end-to-end metrics.
func (r *run) name(name string, value float64, samples []float64, kind sampleKind) {
	d, ok := named[name]
	if !ok {
		panic("cloudbench: unknown named metric " + name)
	}
	r.named = append(r.named, rowOf(d, value, samples, kind))
}

// layer reports one per-layer metric.
func (r *run) layer(name string, v float64) { r.layers[name] = v }

// iterate calls fn until the measuring time is used up: another
// iteration starts only while the elapsed time plus the mean iteration so
// far still fits -seconds (5 % over is let through, so a run does not
// flip between n and n+1 iterations on noise). -smoke stops after one.
func (r *run) iterate(kind string, fn func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if err := fn(i); err != nil {
			return err
		}
		r.iterations[kind] = i + 1
		elapsed := time.Since(start).Seconds()
		if r.size.oneIteration || elapsed+elapsed/float64(i+1) > r.seconds*1.05 {
			return nil
		}
	}
}

// path returns a file name under the build directory that no concurrent
// run of another workload or seed shares.
func (r *run) path(name string) string {
	return filepath.Join(buildDir, fmt.Sprintf("%s-%d-%d-%s", r.def.Name, r.seed, os.Getpid(), name))
}

// result is one workload's entry in a result file.
type result struct {
	Workload    string            `json:"workload"`
	Why         string            `json:"why"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Smoke       bool              `json:"smoke,omitempty"`
	Env         environment       `json:"environment"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"ops"`
	Failed      int               `json:"failed"`
	FailedShare float64           `json:"failed_share"`
	Iterations  map[string]int    `json:"iterations"`
	Checks      []check           `json:"checks"`
	Hashes      map[string]string `json:"hashes"`
	EndToEnd    []row             `json:"endToEnd"`
	Named       []row             `json:"named"`
	PerLayer    []row             `json:"perLayer,omitempty"`
	SpanFile    string            `json:"spanFile,omitempty"`
}

var env = stampEnvironment()

func (r *run) result() result {
	res := result{
		Workload: r.def.Name, Why: r.def.Why, Seed: r.seed, Seconds: r.seconds,
		Traced: r.traced, Smoke: r.smoke, Env: env,
		Attempted: r.attempted, Failed: r.failed,
		Iterations: r.iterations, Checks: r.checks, Hashes: r.hashes,
		Named: r.named, SpanFile: r.spanFile,
	}
	for _, c := range r.checks {
		res.Attempted++
		if !c.OK {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	res.Named = append(res.Named, rowOf(named["failed_share"], res.FailedShare, nil, operations))

	r.slot("setup_s", math.NaN(), r.setups, iterations)
	if _, ok := r.slots["peak_rss_mb"]; !ok {
		mb, err := procStatusMB(0, "VmHWM")
		if err != nil {
			fmt.Fprintln(os.Stderr, "cloudbench:", err)
		}
		r.slot("peak_rss_mb", mb, []float64{mb}, iterations)
	}
	for _, d := range endToEnd {
		row, ok := r.slots[d.Name]
		if !ok && !r.traced {
			panic("cloudbench: " + r.def.Name + " did not report " + d.Name)
		}
		if ok {
			res.EndToEnd = append(res.EndToEnd, row)
		}
	}
	if r.traced {
		for _, d := range perLayer {
			v := r.layers[d.Name]
			res.PerLayer = append(res.PerLayer, rowOf(d, v, []float64{v}, iterations))
			delete(r.layers, d.Name)
		}
		for name := range r.layers {
			panic("cloudbench: per-layer metric " + name + " is not in the catalogue")
		}
	}
	return res
}

// contractLine renders the harness's result object: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
func (res result) contractLine() []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	rows := res.EndToEnd
	if res.Traced {
		rows = res.PerLayer
	}
	metrics := make(map[string]value, len(rows))
	for _, r := range rows {
		metrics[r.Name] = value{r.Value, r.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal(1, "encode result: %v", err)
	}
	return line
}

// printResult prints every metric by name with its unit.
func printResult(w io.Writer, res result) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g traced=%v iterations=%v gomaxprocs=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, res.Iterations, res.Env.GOMAXPROCS)
	line := func(r row, note string) {
		noisy := ""
		if r.Noisy {
			noisy = "  NOISY"
		}
		fmt.Fprintf(w, "  %-42s %14.6g %-9s n=%-5d q1=%.6g q3=%.6g%s%s\n", r.Name, r.Value, r.Unit, r.N, r.Q1, r.Q3, noisy, note)
	}
	for _, r := range res.EndToEnd {
		note := ""
		if r.Means != "" {
			note = "  = " + r.Means
		}
		line(r, note)
	}
	for _, r := range res.Named {
		line(r, "")
	}
	for _, r := range res.PerLayer {
		if r.Value != 0 {
			line(r, "")
		}
	}
	keys := make([]string, 0, len(res.Hashes))
	for k := range res.Hashes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  hash %-37s %s\n", k, res.Hashes[k])
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  ops=%d failed=%d failed_share=%g correct=%v\n", res.Attempted, res.Failed, res.FailedShare, res.Correct)
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Results []result `json:"results"`
}

func writeResults(path string, results []result) error {
	data, err := json.MarshalIndent(resultFile{results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Results, nil
}

// runSuite runs every workload in a fresh child process of this program,
// so each one's peak RSS is its own, and gathers the children's results
// into one file.
func runSuite(seed uint64, seconds float64, trace int, smoke bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(buildDir, "result.json")
	}
	var all []result
	var failed []string
	for _, w := range workloads {
		part := filepath.Join(buildDir, fmt.Sprintf("part-%d-%s.json", os.Getpid(), w.Name))
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-out", part}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		// The child's set-up starts when the child does.
		cmd.Env = append(os.Environ(), "CLOUDBENCH_T0=")
		runErr := cmd.Run()
		res, err := readResults(part)
		os.Remove(part)
		if err != nil {
			return fmt.Errorf("%s: %v (child: %v)", w.Name, err, runErr)
		}
		all = append(all, res...)
		if runErr != nil {
			failed = append(failed, w.Name)
		}
	}
	if err := writeResults(out, all); err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", out)
	if len(failed) > 0 {
		return fmt.Errorf("correctness checks failed in %v", failed)
	}
	return nil
}
