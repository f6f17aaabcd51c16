// Command policysim runs the paper's management pilots over a trace.
//
// The oversub, spot, and balance pilots are thin drivers over the online
// policy engine (internal/policy): the trace is replayed offline through
// the streaming pipeline into fold-boundary knowledge-base snapshots, a
// seeded request stream is fed to the engine, and the resulting decision
// ledger plus counterfactual regret are reported. The remaining pilots
// are batch analyses without an online counterpart:
//
//	oversub   chance-constrained over-subscription admission via the
//	          Oversubscribe policy (Section III-B)
//	spot      spot/on-demand admission via the SpotAdmit policy
//	balance   region placement via the RegionBalance policy (Section IV-B)
//	engine    oversub+spot+balance in one engine run (honors -policies)
//	deferral  deferrable-workload valley scheduling (Section IV-A)
//	mixture   dynamic spot/on-demand mixture for a deadline batch job
//	provision reactive vs predictive pre-provisioning for hourly peaks
//	allocfail workload-aware allocation-failure prediction
//	all       everything above (default)
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
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"cloudlens"
	"cloudlens/internal/kb"
	"cloudlens/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "policysim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed       = flag.Uint64("seed", 42, "generation seed (ignored with -trace)")
		scale      = flag.Float64("scale", 1.0, "universe scale (ignored with -trace)")
		tracePath  = flag.String("trace", "", "load a saved trace instead of generating")
		experiment = flag.String("experiment", "all", "oversub | spot | balance | engine | deferral | mixture | provision | allocfail | all")
		policies   = flag.String("policies", "oversub,spot,balance", "policy spec for -experiment engine")
		requests   = flag.Int("requests", 24, "generated requests per policy for the engine experiments")
		shards     = flag.Int("shards", 1, "ingestion shards for the offline replay feeding the engine")
		traceLevel = flag.Int("trace-level", 1, "policy ledger detail: 0 | 1 | 2")
		cfK        = flag.Int("counterfactual-k", 3, "rejected alternatives re-scored per decision")
	)
	flag.Parse()

	var (
		tr  *cloudlens.Trace
		err error
	)
	if *tracePath != "" {
		tr, err = cloudlens.LoadTrace(*tracePath)
	} else {
		cfg := cloudlens.DefaultConfig(*seed)
		cfg.Scale = *scale
		tr, err = cloudlens.Generate(cfg)
	}
	if err != nil {
		return err
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	engineCfg := engineConfig{
		Seed:            *seed,
		Requests:        *requests,
		Shards:          *shards,
		TraceLevel:      *traceLevel,
		CounterfactualK: *cfK,
	}
	runAll := *experiment == "all"
	ran := false
	switch *experiment {
	case "oversub", "spot", "balance":
		// Single-policy engine runs replacing the old batch pilots.
		engineCfg.Spec = *experiment
		if err := runEngine(w, tr, engineCfg); err != nil {
			return err
		}
		ran = true
	case "engine":
		engineCfg.Spec = *policies
		if err := runEngine(w, tr, engineCfg); err != nil {
			return err
		}
		ran = true
	}
	if runAll {
		engineCfg.Spec = *policies
		if err := runEngine(w, tr, engineCfg); err != nil {
			return err
		}
		ran = true
	}
	if runAll || *experiment == "deferral" {
		if err := runDeferral(w, tr); err != nil {
			return err
		}
		ran = true
	}
	if runAll || *experiment == "mixture" {
		if err := runMixture(w, tr); err != nil {
			return err
		}
		ran = true
	}
	if runAll || *experiment == "provision" {
		if err := runProvision(w, tr); err != nil {
			return err
		}
		ran = true
	}
	if runAll || *experiment == "allocfail" {
		if err := runAllocFail(w, tr); err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
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
// against a snapshot of the finished knowledge base, and report the decision ledger and counterfactual regret per policy.
// With a nil engine clock the whole run is deterministic in (trace, seed).
func runEngine(w io.Writer, tr *cloudlens.Trace, cfg engineConfig) error {
	if err := report.Section(w, "Online policy engine (offline replay -> seeded request stream)"); err != nil {
		return err
	}
	pols, err := cloudlens.ParsePolicySpec(cfg.Spec)
	if err != nil {
		return err
	}
	pipe := cloudlens.NewStreamPipeline(tr, cloudlens.StreamOptions{Shards: cfg.Shards})
	pipe.Start(context.Background())
	pipe.Wait()

	src := kb.NewStoreSource(pipe.KB(), tr.Grid.N, nil)
	eng, err := cloudlens.NewPolicyEngine(src, pols, cloudlens.PolicyEngineOptions{
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

	for _, req := range generateRequests(sn, eng.Policies(), cfg.Seed, cfg.Requests) {
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

// generateRequests builds the seeded request stream: for each policy,
// cfg.Requests asks against snapshot subscriptions drawn by a seeded
// generator; balance asks carry two candidate regions drawn from the
// snapshot's region universe. Deterministic in (snapshot, policies, seed).
func generateRequests(sn *cloudlens.KBSnapshot, policies []string, seed uint64, perPolicy int) []cloudlens.PolicyRequest {
	profiles := sn.Profiles()
	regionSet := map[string]bool{}
	for _, p := range profiles {
		for _, r := range p.Regions {
			regionSet[r] = true
		}
	}
	regions := make([]string, 0, len(regionSet))
	for r := range regionSet {
		regions = append(regions, r)
	}
	sort.Strings(regions)

	rng := rand.New(rand.NewSource(int64(seed)))
	var out []cloudlens.PolicyRequest
	for _, pol := range policies {
		for i := 0; i < perPolicy; i++ {
			req := cloudlens.PolicyRequest{
				Policy:       pol,
				Subscription: profiles[rng.Intn(len(profiles))].Subscription,
				Cores:        1 + rng.Intn(16),
			}
			if pol == "balance" && len(regions) > 0 {
				a := rng.Intn(len(regions))
				b := rng.Intn(len(regions))
				req.Regions = []string{regions[a]}
				if b != a {
					req.Regions = append(req.Regions, regions[b])
				}
			}
			out = append(out, req)
		}
	}
	return out
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

func runDeferral(w io.Writer, tr *cloudlens.Trace) error {
	if err := report.Section(w, "Deferrable-workload valley scheduling (private cloud)"); err != nil {
		return err
	}
	res, err := cloudlens.RunDeferral(tr, cloudlens.DeferralOptions{})
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

func runMixture(w io.Writer, tr *cloudlens.Trace) error {
	if err := report.Section(w, "Dynamic spot/on-demand mixture (deadline batch job)"); err != nil {
		return err
	}
	results, err := cloudlens.RunSpotMixture(tr, cloudlens.MixtureOptions{})
	if err != nil {
		return err
	}
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

func runProvision(w io.Writer, tr *cloudlens.Trace) error {
	if err := report.Section(w, "Predictive pre-provisioning for hourly-peak workloads"); err != nil {
		return err
	}
	res, err := cloudlens.RunPreProvisioning(tr, nil, cloudlens.ProvisionOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "service %s: peak demand %.0f cores, mean %.0f cores over the test window\n",
		res.Service, res.PeakDemandCores, res.MeanDemandCores)
	t := report.NewTable("policy", "throttled core-h", "throttled steps", "mean provisioned", "overprovisioned core-h")
	for _, pr := range []struct {
		policy                    string
		throttled, throttledSteps float64
		mean, over                float64
	}{
		{res.Reactive.Policy, res.Reactive.ThrottledCoreHours, res.Reactive.ThrottledSteps,
			res.Reactive.MeanProvisionedCores, res.Reactive.OverProvisionedCoreHours},
		{res.Predictive.Policy, res.Predictive.ThrottledCoreHours, res.Predictive.ThrottledSteps,
			res.Predictive.MeanProvisionedCores, res.Predictive.OverProvisionedCoreHours},
	} {
		t.AddRow(pr.policy,
			fmt.Sprintf("%.2f", pr.throttled),
			report.Pct(pr.throttledSteps),
			fmt.Sprintf("%.1f", pr.mean),
			fmt.Sprintf("%.1f", pr.over))
	}
	return t.Render(w)
}

func runAllocFail(w io.Writer, tr *cloudlens.Trace) error {
	if err := report.Section(w, "Workload-aware allocation-failure prediction (private cloud)"); err != nil {
		return err
	}
	res, err := cloudlens.RunAllocFailPrediction(tr, cloudlens.AllocFailOptions{Seed: 1})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "planning horizon 12h; %d train / %d test at-risk requests; failure base rate %s\n",
		res.TrainSamples, res.TestSamples, report.Pct(res.FailureRate))
	t := report.NewTable("predictor", "accuracy", "precision", "recall", "F1")
	for _, row := range []struct {
		name string
		m    struct{ Accuracy, Precision, Recall, F1 float64 }
	}{
		{"static capacity check", struct{ Accuracy, Precision, Recall, F1 float64 }(res.Baseline)},
		{"workload-aware model", struct{ Accuracy, Precision, Recall, F1 float64 }(res.Model)},
	} {
		t.AddRow(row.name,
			fmt.Sprintf("%.3f", row.m.Accuracy),
			fmt.Sprintf("%.3f", row.m.Precision),
			fmt.Sprintf("%.3f", row.m.Recall),
			fmt.Sprintf("%.3f", row.m.F1))
	}
	return t.Render(w)
}
