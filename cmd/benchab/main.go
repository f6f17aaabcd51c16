// Command benchab runs the repository's benchmark as interleaved pairs of
// a reference commit and HEAD and reports each end-to-end metric's paired
// change.
//
// Usage (from the root of the repository, normally through make ab):
//
//	benchab -ref COMMIT [-n 10] [-workload ingest-clean] [-seed 42]
//	        [-label L] [-work DIR]
//
// Each commit is exported once (git archive) into its own directory under
// -work and warmed with one short discarded run, which builds the benchmark
// and fills that tree's build cache. Then each pair runs
//
//	bash bench/run.sh --workload W --seed S --seconds 25 --trace 0 -out F
//
// in both trees back to back, the reference first in even pairs and HEAD
// first in odd ones. For every end-to-end metric it prints the median of
// the HEAD/ref ratios with their quartiles, the pairs HEAD won with a
// one-sided sign-test p-value, the medians of the raw values against the
// reference's interquartile range, and every raw run.
// Every run is appended as one JSON line (label, commit, side, pair,
// position, seed, metrics, hashes, environment stamp) to
// experiments/runs/<label>-<workload>.jsonl.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runSeconds is how long each run measures: BENCHMARK.json's run_seconds,
// so a pair reads what the benchmark's own comparison reads.
const runSeconds = 25

// records is the directory of the JSON-lines run logs.
var records = filepath.Join("experiments", "runs")

func main() {
	var (
		ref      = flag.String("ref", "", "reference commit (required)")
		n        = flag.Int("n", 10, "number of pairs")
		workload = flag.String("workload", "ingest-clean", "benchmark workload")
		seed     = flag.Uint64("seed", 42, "benchmark seed")
		label    = flag.String("label", "", "run-log label (default: HEAD's short hash)")
		work     = flag.String("work", "", "directory for the exported trees and result files (default: a new temporary directory)")
	)
	flag.Parse()
	if *ref == "" || *n <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchab -ref COMMIT [-n 10] [-workload W] [-seed S] [-label L] [-work DIR]")
		os.Exit(2)
	}
	if err := run(*ref, *n, *workload, *seed, *label, *work); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(refRev string, n int, workload string, seed uint64, label, work string) error {
	commits := map[string]string{}
	for side, rev := range map[string]string{sideRef: refRev, sideNew: "HEAD"} {
		c, err := resolve(rev)
		if err != nil {
			return err
		}
		commits[side] = c
	}
	if label == "" {
		label = commits[sideNew][:12]
	}
	if work == "" {
		dir, err := os.MkdirTemp("", "benchab-")
		if err != nil {
			return err
		}
		work = dir
	}
	work, err := filepath.Abs(work)
	if err != nil {
		return err
	}
	trees := map[string]string{}
	for _, side := range []string{sideRef, sideNew} {
		dir, err := export(work, commits[side])
		if err != nil {
			return err
		}
		trees[side] = dir
	}
	if err := os.MkdirAll(records, 0o755); err != nil {
		return err
	}
	logPath := filepath.Join(records, label+"-"+workload+".jsonl")
	logf, err := os.OpenFile(logPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()

	bench := func(side, out string, secs float64) (runResult, error) {
		args := []string{"bench/run.sh", "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", "0", "-out", out}
		logFile, err := os.Create(strings.TrimSuffix(out, ".json") + ".log")
		if err != nil {
			return runResult{}, err
		}
		defer logFile.Close()
		cmd := exec.Command("bash", args...)
		cmd.Dir = trees[side]
		cmd.Stdout, cmd.Stderr = logFile, logFile
		runErr := cmd.Run()
		res, err := readResult(out)
		if err != nil {
			return runResult{}, fmt.Errorf("%s run wrote no result (%v): %w; see %s", side, runErr, err, logFile.Name())
		}
		return res, nil
	}

	fmt.Printf("benchab: %s seed %d, %d pairs of %gs runs: ref %s, new %s (label %s)\n",
		workload, seed, n, float64(runSeconds), commits[sideRef][:12], commits[sideNew][:12], label)
	for _, side := range []string{sideRef, sideNew} {
		out := filepath.Join(work, fmt.Sprintf("%s-%s-%d-warmup-%s.json", label, workload, seed, side))
		if _, err := bench(side, out, 1); err != nil {
			// A short run may fail a check a full one passes; the build it
			// warmed is what counts.
			fmt.Fprintln(os.Stderr, "benchab: warm-up:", err)
		}
	}
	var pairs []pair
	for i := 0; i < n; i++ {
		p := pair{First: order(i)[0]}
		for pos, side := range order(i) {
			out := filepath.Join(work, fmt.Sprintf("%s-%s-%d-pair%02d-%s.json", label, workload, seed, i, side))
			res, err := bench(side, out, runSeconds)
			if err != nil {
				return err
			}
			if side == sideRef {
				p.Ref = res
			} else {
				p.New = res
			}
			line, err := json.Marshal(newRecord(label, i, pos, side, commits[side], res))
			if err != nil {
				return err
			}
			if _, err := logf.Write(append(line, '\n')); err != nil {
				return err
			}
			fmt.Printf("  pair %d %s correct=%v\n", i, side, res.Correct)
		}
		pairs = append(pairs, p)
	}
	report(os.Stdout, pairs, summarize(pairs))
	fmt.Printf("records appended to %s\n", logPath)
	for _, p := range pairs {
		if !p.Ref.Correct || !p.New.Correct {
			return errors.New("a run failed its correctness checks")
		}
	}
	return nil
}

// resolve returns the full hash of a commit-ish.
func resolve(rev string) (string, error) {
	out, err := exec.Command("git", "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("resolve %q: %w", rev, err)
	}
	return strings.TrimSpace(string(out)), nil
}

// export writes the commit's tree to work/<hash> once; a later run reuses
// it, build cache included.
func export(work, commit string) (string, error) {
	dir := filepath.Join(work, commit[:12])
	done := filepath.Join(dir, ".benchab-exported")
	if _, err := os.Stat(done); err == nil {
		return dir, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", commit)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	untar.Stdin = pipe
	untar.Stderr, archive.Stderr = os.Stderr, os.Stderr
	if err := archive.Start(); err != nil {
		return "", err
	}
	if err := untar.Run(); err != nil {
		archive.Wait()
		return "", fmt.Errorf("extract %s: %w", commit, err)
	}
	if err := archive.Wait(); err != nil {
		return "", fmt.Errorf("git archive %s: %w", commit, err)
	}
	return dir, os.WriteFile(done, nil, 0o644)
}
