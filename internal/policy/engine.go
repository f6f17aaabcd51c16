package policy

import (
	"fmt"
	"sync/atomic"
	"time"

	"cloudlens/internal/kb"
)

// Options configures an Engine.
type Options struct {
	// TraceLevel controls how much each ledger entry records: TraceOff
	// (chosen action only), TraceAlternatives (+ top-k rejected
	// alternatives, the default), or TraceSpans (+ evaluation spans).
	TraceLevel int
	// CounterfactualK caps how many rejected alternatives are recorded on
	// ledger entries and re-scored during counterfactual replay.
	// Default 3.
	CounterfactualK int
	// Clock, when non-nil, times Decide for the per-policy latency
	// histograms (wkbserver passes time.Now). Nil disables timing, which
	// keeps offline drivers — the determinism oracle, policysim, tests —
	// free of wall-clock reads. The ledger never records clock values
	// either way, so this only affects metrics.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.TraceLevel < TraceOff {
		o.TraceLevel = TraceOff
	}
	if o.TraceLevel > TraceSpans {
		o.TraceLevel = TraceSpans
	}
	if o.CounterfactualK <= 0 {
		o.CounterfactualK = 3
	}
	return o
}

// Engine evaluates requests with its configured policies against the
// snapshot source and appends every decision to the ledger. Safe for
// concurrent use.
type Engine struct {
	opts     Options
	src      kb.SnapshotSource
	policies []Policy
	byName   map[string]Policy
	names    []string // spec order
	ledger   *Ledger
	met      map[string]*policyMetrics

	accepted        atomic.Int64
	rejected        atomic.Int64
	counterfactuals atomic.Int64
}

// NewEngine builds an engine over the given snapshot source and policies
// (typically from ParseSpec; order is preserved). At least one policy is
// required.
func NewEngine(src kb.SnapshotSource, policies []Policy, opts Options) (*Engine, error) {
	if src == nil {
		return nil, fmt.Errorf("policy: nil snapshot source")
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("policy: no policies configured")
	}
	e := &Engine{
		opts:     opts.withDefaults(),
		src:      src,
		policies: policies,
		byName:   make(map[string]Policy, len(policies)),
		ledger:   &Ledger{},
		met:      make(map[string]*policyMetrics, len(policies)),
	}
	for _, p := range policies {
		name := p.Name()
		if _, dup := e.byName[name]; dup {
			return nil, fmt.Errorf("policy: duplicate policy %q", name)
		}
		e.byName[name] = p
		e.names = append(e.names, name)
		e.met[name] = newPolicyMetrics(name)
	}
	return e, nil
}

// Policies returns the configured policy names in spec order.
func (e *Engine) Policies() []string { return append([]string(nil), e.names...) }

// Ledger returns the engine's decision ledger.
func (e *Engine) Ledger() *Ledger { return e.ledger }

// Snapshot returns the snapshot decisions would currently be evaluated
// against.
func (e *Engine) Snapshot() *kb.Snapshot { return e.src.Snapshot() }

// ErrUnknownPolicy reports a request naming a policy the engine was not
// configured with.
type ErrUnknownPolicy struct {
	Name       string
	Configured []string
}

func (e ErrUnknownPolicy) Error() string {
	return fmt.Sprintf("unknown policy %q (configured: %v)", e.Name, e.Configured)
}

// Decide evaluates one request against the current snapshot, appends the
// decision to the ledger, and returns it. The request must already be
// validated (DecodeRequest does this for wire input); Decide applies
// defaults defensively for in-process callers.
func (e *Engine) Decide(req Request) (Decision, error) {
	p, ok := e.byName[req.Policy]
	if !ok {
		return Decision{}, ErrUnknownPolicy{Name: req.Policy, Configured: e.Policies()}
	}
	var start time.Time
	if e.opts.Clock != nil {
		start = e.opts.Clock()
	}
	req = req.withDefaults()
	sn := e.src.Snapshot()
	tr := &Tracer{policy: req.Policy, level: e.opts.TraceLevel}
	alts := p.Evaluate(sn, req, tr)
	if len(alts) == 0 {
		alts = []Alternative{{Action: "reject", Note: "policy returned no alternatives"}}
	}
	sortAlternatives(alts)
	chosen := alts[0]
	d := Decision{
		Policy:              req.Policy,
		Request:             req,
		SnapshotStep:        sn.Step(),
		SnapshotFingerprint: sn.Fingerprint(),
		Action:              chosen.Action,
		Score:               chosen.Score,
		Accepted:            chosen.Accept,
		Note:                chosen.Note,
	}
	if e.opts.TraceLevel >= TraceAlternatives {
		rejected := alts[1:]
		if len(rejected) > e.opts.CounterfactualK {
			rejected = rejected[:e.opts.CounterfactualK]
		}
		if len(rejected) > 0 {
			d.Alternatives = append([]Alternative(nil), rejected...)
		}
	}
	if e.opts.TraceLevel >= TraceSpans {
		d.Spans = tr.spans
	}
	d = e.ledger.append(d, sn)

	m := e.met[req.Policy]
	m.decisions.Inc()
	if d.Accepted {
		m.accepts.Inc()
		e.accepted.Add(1)
	} else {
		m.rejects.Inc()
		e.rejected.Add(1)
	}
	mLedgerEntries.SetInt(e.ledger.Len())
	if e.opts.Clock != nil {
		m.latency.Observe(e.opts.Clock().Sub(start).Seconds())
	}
	return d, nil
}

// CounterfactualAlt is one rejected alternative re-scored during replay.
type CounterfactualAlt struct {
	Action string `json:"action"`
	Accept bool   `json:"accept"`
	// ReplayScore is the alternative's score re-evaluated on the snapshot
	// the original decision used.
	ReplayScore float64 `json:"replayScore"`
	// CurrentScore is the alternative's score on the engine's current
	// snapshot; CurrentKnown is false when the current evaluation no
	// longer proposes this action (its profile-dependent action set
	// changed), in which case CurrentScore is 0 and the alternative
	// contributes no regret.
	CurrentScore float64 `json:"currentScore"`
	CurrentKnown bool    `json:"currentKnown"`
	// Regret is max(0, CurrentScore − chosen action's current score): how
	// much better this rejected alternative would do now.
	Regret float64 `json:"regret"`
}

// Counterfactual is the replay report for one ledger entry.
type Counterfactual struct {
	ID     uint64 `json:"id"`
	Policy string `json:"policy"`
	// Action and OriginalScore restate the ledgered decision.
	Action        string  `json:"action"`
	OriginalScore float64 `json:"originalScore"`
	// ReplayScore is the chosen action re-evaluated on the retained
	// snapshot; Reproduced reports ReplayScore == OriginalScore exactly —
	// the determinism contract (a false here means a policy is not a pure
	// function of its inputs).
	ReplayScore float64 `json:"replayScore"`
	Reproduced  bool    `json:"reproduced"`
	// Snapshot identities: the decision's and the engine's current one.
	SnapshotStep        int    `json:"snapshotStep"`
	SnapshotFingerprint string `json:"snapshotFingerprint"`
	CurrentStep         int    `json:"currentStep"`
	CurrentFingerprint  string `json:"currentFingerprint"`
	// ChosenCurrentScore is the chosen action's score on the current
	// snapshot (0 if the current evaluation no longer proposes it).
	ChosenCurrentScore float64 `json:"chosenCurrentScore"`
	// Alternatives are the top-k rejected alternatives by replay ranking.
	Alternatives []CounterfactualAlt `json:"alternatives"`
	// Regret is the maximum alternative regret: how much better the best
	// rejected alternative scores on the current snapshot than the
	// originally chosen action does. 0 means the original choice still
	// wins.
	Regret float64 `json:"regret"`
}

// Counterfactual replays ledger entry id: the policy re-evaluates the
// original request on the retained snapshot (which must reproduce the
// ledgered score exactly) and on the current snapshot, and the top-k
// rejected alternatives are scored for regret.
func (e *Engine) Counterfactual(id uint64) (Counterfactual, error) {
	d, sn, ok := e.ledger.Get(id)
	if !ok {
		return Counterfactual{}, fmt.Errorf("no ledger entry %d (ledger has %d)", id, e.ledger.Len())
	}
	p, ok := e.byName[d.Policy]
	if !ok {
		// Unreachable in practice: ledger entries only come from
		// configured policies, and the engine's set is fixed at build.
		return Counterfactual{}, ErrUnknownPolicy{Name: d.Policy, Configured: e.Policies()}
	}
	e.counterfactuals.Add(1)
	mCounterfactuals.Inc()

	replay := p.Evaluate(sn, d.Request, nil)
	sortAlternatives(replay)
	cur := e.src.Snapshot()
	current := p.Evaluate(cur, d.Request, nil)
	curScore := make(map[string]float64, len(current))
	for _, a := range current {
		curScore[a.Action] = a.Score
	}

	cf := Counterfactual{
		ID:                  d.ID,
		Policy:              d.Policy,
		Action:              d.Action,
		OriginalScore:       d.Score,
		SnapshotStep:        d.SnapshotStep,
		SnapshotFingerprint: d.SnapshotFingerprint,
		CurrentStep:         cur.Step(),
		CurrentFingerprint:  cur.Fingerprint(),
		Alternatives:        []CounterfactualAlt{},
	}
	for _, a := range replay {
		if a.Action == d.Action {
			cf.ReplayScore = a.Score
			cf.Reproduced = a.Score == d.Score
			break
		}
	}
	chosenCur, chosenKnown := curScore[d.Action]
	cf.ChosenCurrentScore = chosenCur

	k := e.opts.CounterfactualK
	for _, a := range replay {
		if a.Action == d.Action {
			continue
		}
		if len(cf.Alternatives) == k {
			break
		}
		alt := CounterfactualAlt{Action: a.Action, Accept: a.Accept, ReplayScore: a.Score}
		if cs, ok := curScore[a.Action]; ok {
			alt.CurrentScore = cs
			alt.CurrentKnown = true
			if chosenKnown && cs > chosenCur {
				alt.Regret = cs - chosenCur
			}
		}
		if alt.Regret > cf.Regret {
			cf.Regret = alt.Regret
		}
		cf.Alternatives = append(cf.Alternatives, alt)
	}
	return cf, nil
}

// Vitals is the policy-engine slice of the /healthz payload: the
// configured policies, decision counters, ledger depth, and the identity
// of the snapshot decisions are currently evaluated against.
type Vitals struct {
	Policies            []string `json:"policies"`
	Decisions           int64    `json:"decisions"`
	Accepted            int64    `json:"accepted"`
	Rejected            int64    `json:"rejected"`
	Counterfactuals     int64    `json:"counterfactuals"`
	LedgerEntries       int      `json:"ledgerEntries"`
	SnapshotStep        int      `json:"snapshotStep"`
	SnapshotProfiles    int      `json:"snapshotProfiles"`
	SnapshotFingerprint string   `json:"snapshotFingerprint"`
}

// Vitals summarizes the engine for /healthz.
func (e *Engine) Vitals() Vitals {
	sn := e.src.Snapshot()
	return Vitals{
		Policies:            e.Policies(),
		Decisions:           e.accepted.Load() + e.rejected.Load(),
		Accepted:            e.accepted.Load(),
		Rejected:            e.rejected.Load(),
		Counterfactuals:     e.counterfactuals.Load(),
		LedgerEntries:       e.ledger.Len(),
		SnapshotStep:        sn.Step(),
		SnapshotProfiles:    sn.Len(),
		SnapshotFingerprint: sn.Fingerprint(),
	}
}
