package diffcheck

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"cloudlens/internal/core"
	"cloudlens/internal/policy"
	"cloudlens/internal/sim"
	"cloudlens/internal/stream"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// The policy-determinism oracle holds the decision ledger to the same
// standard the gauntlet holds the knowledge base: pure function of the
// inputs. For each trial it replays one generated workload into
// fold-boundary snapshots and feeds one seeded request stream to the
// engine, three times over — twice at one shard, once sharded — and
// demands the serialized ledgers match byte for byte. It then replays
// every ledger entry counterfactually and demands the retained snapshot
// reproduce the chosen action's score exactly.

// PolicyConfig parameterizes the policy-determinism trials.
type PolicyConfig struct {
	// Trials is the number of randomized trials (default 5).
	Trials int
	// Seed derives every trial's workload seed and request stream.
	Seed uint64
	// Days is the observation-window length per trial (default 3).
	Days int
	// Scale is the workload universe scale (default 0.05).
	Scale float64
	// Requests is the request-stream length per policy (default 64).
	Requests int
	// ShardCounts lists the shard counts whose ledgers must agree
	// (default {1, 4}; the first entry is also run twice for the
	// same-configuration check).
	ShardCounts []int
	// Spec is the policy set under test (default "oversub,spot,balance").
	Spec string
}

func (c PolicyConfig) withDefaults() PolicyConfig {
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if c.Days < 3 {
		c.Days = 3
	}
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Requests <= 0 {
		c.Requests = 64
	}
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 4}
	}
	if c.Spec == "" {
		c.Spec = "oversub,spot,balance"
	}
	return c
}

// PolicyTrialResult is one trial's verdict.
type PolicyTrialResult struct {
	Trial       int      `json:"trial"`
	Seed        uint64   `json:"seed"`
	Decisions   int      `json:"decisions"`
	Divergences []string `json:"divergences,omitempty"`
}

// PolicyReport collects every trial.
type PolicyReport struct {
	Config  PolicyConfig
	Results []PolicyTrialResult
}

// Failed reports whether any trial diverged.
func (r *PolicyReport) Failed() bool {
	for _, res := range r.Results {
		if len(res.Divergences) > 0 {
			return true
		}
	}
	return false
}

func (r *PolicyReport) String() string {
	var b strings.Builder
	bad := 0
	for _, res := range r.Results {
		for _, d := range res.Divergences {
			fmt.Fprintf(&b, "policy trial %d (seed %d): %s\n", res.Trial, res.Seed, d)
		}
		if len(res.Divergences) > 0 {
			bad++
		}
	}
	fmt.Fprintf(&b, "policy determinism: %d trials, %d diverged (spec %q, shards %v)",
		len(r.Results), bad, r.Config.Spec, r.Config.ShardCounts)
	return b.String()
}

// RunPolicy executes the policy-determinism trials. The error covers
// harness failures; divergences are data in the report.
func RunPolicy(cfg PolicyConfig) (*PolicyReport, error) {
	cfg = cfg.withDefaults()
	rep := &PolicyReport{Config: cfg}
	for i := 0; i < cfg.Trials; i++ {
		res, err := runPolicyTrial(i, cfg)
		if err != nil {
			return rep, fmt.Errorf("diffcheck policy trial %d: %w", i, err)
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

func runPolicyTrial(index int, cfg PolicyConfig) (PolicyTrialResult, error) {
	res := PolicyTrialResult{Trial: index, Seed: cfg.Seed + uint64(index)*1000003}

	wl := workload.DefaultConfig(res.Seed)
	wl.Scale = cfg.Scale
	g := sim.WeekGrid()
	g.N = cfg.Days * g.StepsPerDay()
	wl.Grid = g
	tr, err := workload.Generate(wl)
	if err != nil {
		return res, fmt.Errorf("generate: %w", err)
	}

	// Ledger bytes per run: [shards[0] run A, shards[0] run B, shards[1:]...].
	type run struct {
		label  string
		shards int
	}
	runs := []run{
		{fmt.Sprintf("shards=%d runA", cfg.ShardCounts[0]), cfg.ShardCounts[0]},
		{fmt.Sprintf("shards=%d runB", cfg.ShardCounts[0]), cfg.ShardCounts[0]},
	}
	for _, s := range cfg.ShardCounts[1:] {
		runs = append(runs, run{fmt.Sprintf("shards=%d", s), s})
	}

	var refLedger []byte
	for i, r := range runs {
		ledger, decisions, divs, err := policyLedgerRun(tr, cfg, res.Seed, r.shards)
		if err != nil {
			return res, fmt.Errorf("%s: %w", r.label, err)
		}
		res.Decisions = decisions
		res.Divergences = append(res.Divergences, divs...)
		if i == 0 {
			refLedger = ledger
			continue
		}
		if !bytes.Equal(ledger, refLedger) {
			res.Divergences = append(res.Divergences, fmt.Sprintf(
				"%s: ledger differs from %s (%d vs %d bytes)",
				r.label, runs[0].label, len(ledger), len(refLedger)))
		}
	}
	return res, nil
}

// policyLedgerRun replays the trace at the given shard count, drives the
// seeded request stream, and returns the serialized ledger plus any
// counterfactual-reproduction divergences.
func policyLedgerRun(tr *trace.Trace, cfg PolicyConfig, seed uint64, shards int) ([]byte, int, []string, error) {
	src := policy.NewFoldSource()
	opts := stream.Options{Shards: shards, FoldObserver: src}
	replayer := stream.NewReplayer(tr, opts)
	eng := stream.NewEngine(tr, opts)
	src.Bind(eng.KB())
	eng.SetRecycler(replayer.Recycle)

	errCh := make(chan error, 1)
	go func() { errCh <- replayer.Run(context.Background()) }()
	for b := range replayer.Events() {
		eng.ObserveBatch(b)
	}
	if err := <-errCh; err != nil {
		return nil, 0, nil, fmt.Errorf("replay: %w", err)
	}
	eng.Finish()

	pols, err := policy.ParseSpec(cfg.Spec)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("spec: %w", err)
	}
	peng, err := policy.NewEngine(src, pols, policy.Options{
		TraceLevel:      policy.TraceSpans,
		CounterfactualK: 4,
	})
	if err != nil {
		return nil, 0, nil, err
	}

	for _, req := range policyRequests(peng, seed, cfg.Requests) {
		if _, err := peng.Decide(req); err != nil {
			return nil, 0, nil, fmt.Errorf("decide: %w", err)
		}
	}

	var divs []string
	decisions := peng.Ledger().Len()
	for id := uint64(1); id <= uint64(decisions); id++ {
		cf, err := peng.Counterfactual(id)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("counterfactual %d: %w", id, err)
		}
		if !cf.Reproduced {
			divs = append(divs, fmt.Sprintf(
				"shards=%d entry %d: counterfactual replay scored %v, ledger says %v",
				shards, id, cf.ReplayScore, cf.OriginalScore))
		}
	}

	var buf bytes.Buffer
	if err := peng.Ledger().WriteJSONL(&buf); err != nil {
		return nil, 0, nil, fmt.Errorf("serialize ledger: %w", err)
	}
	return buf.Bytes(), decisions, divs, nil
}

// policyRequests derives the deterministic request stream from (snapshot,
// policies, seed) — the same construction policysim uses, kept here so
// the oracle does not depend on command wiring.
func policyRequests(eng *policy.Engine, seed uint64, perPolicy int) []policy.Request {
	sn := eng.Snapshot()
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
	var out []policy.Request
	for _, pol := range eng.Policies() {
		for i := 0; i < perPolicy; i++ {
			req := policy.Request{
				Policy: pol,
				Cores:  1 + rng.Intn(16),
			}
			if len(profiles) > 0 {
				req.Subscription = profiles[rng.Intn(len(profiles))].Subscription
			} else {
				req.Subscription = core.SubscriptionID("none")
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
