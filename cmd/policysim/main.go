// Command policysim runs the paper's management pilots over a trace, one
// report section per pilot. Every pilot is a row of one table, and
// -experiment names a row (or all of them, in table order):
//
//	engine         the online policy engine (honors -policies): the trace is
//	               replayed offline through the streaming pipeline into a
//	               knowledge-base snapshot, a seeded request stream is fed to
//	               the engine, and the decision ledger plus counterfactual
//	               regret are reported
//	oversub-sweep  chance-constrained over-subscription sweep (Section III-B)
//	region-shift   the Canada region-shift pilot, canada-a -> canada-b
//	               (Section IV-B)
//	spot-harvest   spot-VM valley harvesting (Section III-B)
//	mixture        dynamic spot/on-demand mixture for a deadline batch job
//	deferral       deferrable-workload valley scheduling (Section IV-A)
//	provision      reactive vs predictive pre-provisioning for hourly peaks
//	allocfail      workload-aware allocation-failure prediction
//	all            every row above (default)
//
// A single online policy is `-experiment engine -policies <name>`.
//
// Usage:
//
//	policysim [-seed 42] [-scale 1.0] [-trace bundle/trace.json.gz] [-experiment all]
//	          [-policies oversub,spot,balance] [-requests 24] [-shards 1]
//	          [-trace-level 1] [-counterfactual-k 3]
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cloudlens/internal/allocfail"
	"cloudlens/internal/balance"
	"cloudlens/internal/deferral"
	"cloudlens/internal/kb"
	"cloudlens/internal/oversub"
	"cloudlens/internal/policy"
	"cloudlens/internal/provision"
	"cloudlens/internal/report"
	"cloudlens/internal/spot"
	"cloudlens/internal/stream"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "policysim:", err)
		os.Exit(1)
	}
}

// pilot is one row of the pilot table: its -experiment name, its report
// section title, and the run that writes the section's body.
type pilot struct {
	name, title string
	run         func(w io.Writer, tr *trace.Trace) error
}

// pilots is the table, in the order of EXPERIMENTS.md's "Management
// pilots" table behind the engine that serves its first three online.
func pilots(cfg engineConfig) []pilot {
	return []pilot{
		{"engine", "Online policy engine (offline replay -> seeded request stream)",
			func(w io.Writer, tr *trace.Trace) error { return runEngine(w, tr, cfg) }},
		{"oversub-sweep", "Chance-constrained over-subscription sweep (private cloud)", runOversubSweep},
		{"region-shift", "Canada region shift (canada-a -> canada-b)", runRegionShift},
		{"spot-harvest", "Spot-VM valley harvesting (public cloud)", runSpotHarvest},
		{"mixture", "Dynamic spot/on-demand mixture (deadline batch job)", runMixture},
		{"deferral", "Deferrable-workload valley scheduling (private cloud)", runDeferral},
		{"provision", "Predictive pre-provisioning for hourly-peak workloads", runProvision},
		{"allocfail", "Workload-aware allocation-failure prediction (private cloud)", runAllocFail},
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("policysim", flag.ContinueOnError)
	var (
		seed       = fs.Uint64("seed", 42, "generation seed (ignored with -trace)")
		scale      = fs.Float64("scale", 1.0, "universe scale (ignored with -trace)")
		tracePath  = fs.String("trace", "", "load a saved trace instead of generating")
		experiment = fs.String("experiment", "all", "engine | oversub-sweep | region-shift | spot-harvest | mixture | deferral | provision | allocfail | all")
		policies   = fs.String("policies", "oversub,spot,balance", "policy spec for -experiment engine")
		requests   = fs.Int("requests", 24, "generated requests per policy for the engine experiments")
		shards     = fs.Int("shards", 1, "ingestion shards for the offline replay feeding the engine")
		traceLevel = fs.Int("trace-level", 1, "policy ledger detail: 0 | 1 | 2")
		cfK        = fs.Int("counterfactual-k", 3, "rejected alternatives re-scored per decision")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	table := pilots(engineConfig{
		Spec:            *policies,
		Seed:            *seed,
		Requests:        *requests,
		Shards:          *shards,
		TraceLevel:      *traceLevel,
		CounterfactualK: *cfK,
	})
	selected := table
	if *experiment != "all" {
		selected = nil
		for _, p := range table {
			if p.name == *experiment {
				selected = []pilot{p}
			}
		}
		if selected == nil {
			names := make([]string, 0, len(table)+1)
			for _, p := range table {
				names = append(names, p.name)
			}
			return fmt.Errorf("unknown experiment %q (want %s)", *experiment, strings.Join(append(names, "all"), " | "))
		}
	}

	var (
		tr  *trace.Trace
		err error
	)
	if *tracePath != "" {
		tr, err = trace.LoadFile(*tracePath)
	} else {
		cfg := workload.DefaultConfig(*seed)
		cfg.Scale = *scale
		tr, err = workload.Generate(cfg)
	}
	if err != nil {
		return err
	}

	// Sections finished before a failure still print.
	w := bufio.NewWriter(stdout)
	for _, p := range selected {
		if err = report.Section(w, p.title); err == nil {
			err = p.run(w, tr)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", p.name, err)
			break
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	return err
}

// engineConfig parameterizes one offline engine run.
type engineConfig struct {
	Spec            string
	Seed            uint64
	Requests        int
	Shards          int
	TraceLevel      int
	CounterfactualK int
}

// runEngine is the offline driver over the online policy engine: replay
// the trace through the streaming pipeline, feed a seeded request stream
// against a snapshot of the finished knowledge base, and report the
// decision ledger and counterfactual regret per policy. With a nil engine
// clock the whole run is deterministic in (trace, seed).
func runEngine(w io.Writer, tr *trace.Trace, cfg engineConfig) error {
	pols, err := policy.ParseSpec(cfg.Spec)
	if err != nil {
		return err
	}
	pipe := stream.NewPipeline(tr, stream.Options{Shards: cfg.Shards})
	pipe.Start(context.Background())
	if err := pipe.Wait(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	eng, err := policy.NewEngine(pipe.KB(), pols, policy.Options{
		TraceLevel:      cfg.TraceLevel,
		CounterfactualK: cfg.CounterfactualK,
	})
	if err != nil {
		return err
	}
	sn := eng.Snapshot()
	fmt.Fprintf(w, "snapshot: step %d, %d profiles, %s (replay shards=%d)\n",
		sn.Step(), sn.Len(), sn.Fingerprint(), cfg.Shards)
	if sn.Len() == 0 {
		return fmt.Errorf("empty knowledge base after replay")
	}

	for _, req := range policy.GenerateRequests(sn, eng.Policies(), cfg.Seed, cfg.Requests) {
		if _, err := eng.Decide(req); err != nil {
			return err
		}
	}

	type agg struct {
		decisions, accepted int
		scoreSum, regretSum float64
		reproduced          bool
		actions             map[string]int
	}
	byPolicy := make(map[string]*agg)
	for _, name := range eng.Policies() {
		byPolicy[name] = &agg{reproduced: true, actions: map[string]int{}}
	}
	for _, d := range eng.Ledger().List("") {
		cf, err := eng.Counterfactual(d.ID)
		if err != nil {
			return err
		}
		a := byPolicy[d.Policy]
		a.decisions++
		if d.Accepted {
			a.accepted++
		}
		a.scoreSum += d.Score
		a.regretSum += cf.Regret
		a.reproduced = a.reproduced && cf.Reproduced
		a.actions[d.Action]++
	}
	t := report.NewTable("policy", "decisions", "accepted", "mean score", "mean regret", "reproduced", "top action")
	for _, name := range eng.Policies() {
		a := byPolicy[name]
		n := float64(max(a.decisions, 1))
		t.AddRow(name,
			fmt.Sprintf("%d", a.decisions),
			report.Pct(float64(a.accepted)/n),
			fmt.Sprintf("%.4f", a.scoreSum/n),
			fmt.Sprintf("%.4f", a.regretSum/n),
			fmt.Sprintf("%v", a.reproduced),
			topAction(a.actions))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d ledger entries; counterfactual replay on the final snapshot reproduces every chosen score\n",
		eng.Ledger().Len())
	return nil
}

// topAction names the most frequent chosen action (ties break
// lexicographically).
func topAction(actions map[string]int) string {
	var best string
	bestN := -1
	keys := make([]string, 0, len(actions))
	for k := range actions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if actions[k] > bestN {
			best, bestN = k, actions[k]
		}
	}
	if best == "" {
		return "-"
	}
	return fmt.Sprintf("%s (%d)", best, bestN)
}

func runOversubSweep(w io.Writer, tr *trace.Trace) error {
	res, err := oversub.Run(tr, oversub.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d nodes: %.0f requested cores, %.0f under the static baseline, %.0f used on average\n",
		res.Nodes, res.BaselineCores, res.StaticCores, res.MeanUsedCores)
	t := report.NewTable("epsilon", "reserved cores", "gain vs static", "gain vs requested", "violation rate")
	for _, p := range res.Points {
		t.AddRow(fmt.Sprintf("%g", p.Epsilon),
			fmt.Sprintf("%.0f", p.ReservedCores),
			report.Pct(p.UtilizationGain),
			report.Pct(p.GainVsRequested),
			fmt.Sprintf("%.4f", p.ViolationRate))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	lo, hi := res.GainRange()
	fmt.Fprintf(w, "utilization gain over the static baseline: %s .. %s\n", report.Pct(lo), report.Pct(hi))
	return nil
}

func runRegionShift(w io.Writer, tr *trace.Trace) error {
	out, err := balance.Run(tr, kb.Extract(tr, kb.ExtractOptions{}), "canada-a", "canada-b")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "shift %s (%d VMs, %d cores), knowledge-base region-agnostic score %.2f\n",
		out.Plan.Service, out.Plan.VMs, out.Plan.Cores, out.Plan.AgnosticScore)
	t := report.NewTable("region", "phase", "utilization rate", "underutilized share")
	for _, row := range []struct {
		region, phase string
		m             balance.RegionMetrics
	}{
		{out.Plan.Source, "before", out.SourceBefore},
		{out.Plan.Source, "after", out.SourceAfter},
		{out.Plan.Destination, "before", out.DestBefore},
		{out.Plan.Destination, "after", out.DestAfter},
	} {
		t.AddRow(row.region, row.phase,
			fmt.Sprintf("%.2f%%", 100*row.m.UtilizationRate),
			fmt.Sprintf("%.2f%%", 100*row.m.UnderutilizedShare))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "destination utilization rate %+.2f points; source health improved: %v\n",
		100*(out.DestAfter.UtilizationRate-out.DestBefore.UtilizationRate), out.HealthImproved())
	return nil
}

func runSpotHarvest(w io.Writer, tr *trace.Trace) error {
	res, err := spot.Run(tr, spot.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pool of %d physical cores: allocated utilization %s on-demand, %s with spot (%+.2f points)\n",
		res.PhysicalCores, report.Pct(res.OnDemandUtilization), report.Pct(res.WithSpotUtilization),
		100*(res.WithSpotUtilization-res.OnDemandUtilization))
	fmt.Fprintf(w, "harvested %.0f core-hours across %d spot VMs (mean lifetime %.1f h, %d evictions)\n",
		res.SpotCoreHours, res.SpotVMsServed, res.MeanSpotLifetimeHours, res.Evictions)
	fmt.Fprintf(w, "per-hour eviction predictor (trained days 1-3, tested days 4-7): correlation %.2f, MAE %.4f\n",
		res.Predictor.Correlation, res.Predictor.MAE)
	return nil
}

func runDeferral(w io.Writer, tr *trace.Trace) error {
	res, err := deferral.Run(tr, deferral.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "deferred %d jobs (%.0f core-hours) into the %02d:00 UTC valley\n",
		res.DeferrableVMs, res.DeferredCoreHours, res.ValleyHourUTC)
	fmt.Fprintf(w, "peak-to-mean ratio: %.3f -> %.3f (peak reduction %s)\n",
		res.PeakToMeanBefore, res.PeakToMeanAfter, report.Pct(res.PeakReduction))
	fmt.Fprintf(w, "valley fill (valley mean / overall mean): %.3f -> %.3f\n",
		res.ValleyFillBefore, res.ValleyFillAfter)
	return nil
}

// mixtureJob is examples/spotmixture's constrained-pool job: one region,
// a 2 % slice of the spot pool, started Monday 06:00 just before the
// morning on-demand ramp. Over the whole pool all three policies finish at
// the same cost, so the row would show nothing.
var mixtureJob = spot.MixtureOptions{
	Region:       "us-east",
	MaxVMs:       24,
	StartStep:    6 * 12,
	PoolFraction: 0.02,
}

func runMixture(w io.Writer, tr *trace.Trace) error {
	results, err := spot.RunMixture(tr, mixtureJob)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "constrained-pool job in %s: at most %d VMs from step %d, %.0f%% of the spot pool\n",
		mixtureJob.Region, mixtureJob.MaxVMs, mixtureJob.StartStep, 100*mixtureJob.PoolFraction)
	t := report.NewTable("policy", "completed", "finish (h)", "cost (od VM-h)", "spot VM-h", "on-demand VM-h", "evictions")
	for _, r := range results {
		t.AddRow(r.Policy.String(),
			fmt.Sprintf("%v", r.Completed),
			fmt.Sprintf("%.1f", r.FinishHour),
			fmt.Sprintf("%.1f", r.Cost),
			fmt.Sprintf("%.1f", r.SpotVMHours),
			fmt.Sprintf("%.1f", r.OnDemandVMHours),
			fmt.Sprintf("%d", r.Evictions))
	}
	return t.Render(w)
}

func runProvision(w io.Writer, tr *trace.Trace) error {
	res, err := provision.Run(tr, kb.Extract(tr, kb.ExtractOptions{}), provision.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "service %s: peak demand %.0f cores, mean %.0f cores over the test window\n",
		res.Service, res.PeakDemandCores, res.MeanDemandCores)
	t := report.NewTable("policy", "throttled core-h", "throttled steps", "mean provisioned", "overprovisioned core-h")
	for _, pr := range []provision.PolicyResult{res.Reactive, res.Predictive} {
		t.AddRow(pr.Policy,
			fmt.Sprintf("%.2f", pr.ThrottledCoreHours),
			report.Pct(pr.ThrottledSteps),
			fmt.Sprintf("%.1f", pr.MeanProvisionedCores),
			fmt.Sprintf("%.1f", pr.OverProvisionedCoreHours))
	}
	return t.Render(w)
}

func runAllocFail(w io.Writer, tr *trace.Trace) error {
	res, err := allocfail.Run(tr, allocfail.Options{Seed: 1})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "planning horizon 12h; %d train / %d test at-risk requests; failure base rate %s\n",
		res.TrainSamples, res.TestSamples, report.Pct(res.FailureRate))
	t := report.NewTable("predictor", "accuracy", "precision", "recall", "F1")
	for _, row := range []struct {
		name string
		m    allocfail.Metrics
	}{
		{"static capacity check", res.Baseline},
		{"workload-aware model", res.Model},
	} {
		t.AddRow(row.name,
			fmt.Sprintf("%.3f", row.m.Accuracy),
			fmt.Sprintf("%.3f", row.m.Precision),
			fmt.Sprintf("%.3f", row.m.Recall),
			fmt.Sprintf("%.3f", row.m.F1))
	}
	return t.Render(w)
}
