package policy

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
)

// testKB builds a small knowledge base exercising every policy's
// branches: a multi-region region-agnostic subscription, a single-region
// one, and a public-cloud spot candidate. It is labelled as the last fold
// of a week.
func testKB() *kb.Snapshot {
	return kb.SnapshotOf(2016, 1, &kb.Profile{
		Subscription:        "sub-a",
		Cloud:               core.Private,
		Regions:             []string{"r1", "r2"},
		SnapshotVMs:         4,
		SnapshotCores:       16,
		MeanUtilization:     0.3,
		DominantPattern:     core.PatternDiurnal,
		RegionAgnosticScore: 0.95,
		ShortLivedShare:     0.1,
	}, &kb.Profile{
		Subscription:        "sub-b",
		Cloud:               core.Private,
		Regions:             []string{"r1"},
		SnapshotVMs:         2,
		SnapshotCores:       8,
		MeanUtilization:     0.6,
		DominantPattern:     core.PatternStable,
		RegionAgnosticScore: -1,
		ShortLivedShare:     0,
	}, &kb.Profile{
		Subscription:        "sub-c",
		Cloud:               core.Public,
		Regions:             []string{"r3"},
		SnapshotVMs:         6,
		SnapshotCores:       24,
		MeanUtilization:     0.4,
		DominantPattern:     core.PatternIrregular,
		RegionAgnosticScore: -1,
		ShortLivedShare:     0.7,
	})
}

func testEngine(t *testing.T, spec string, opts Options) *Engine {
	t.Helper()
	pols, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	eng, err := NewEngine(testKB(), pols, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

func TestParseSpec(t *testing.T) {
	good := []string{
		"oversub",
		"spot",
		"balance",
		"oversub,spot,balance",
		"oversub:risk=2",
		"oversub:risk=2:eps=0.01",
		"spot:headroom=0.5:ondemand=0.3",
		"balance:stay=0.1",
	}
	for _, spec := range good {
		pols, err := ParseSpec(spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", spec, err)
			continue
		}
		if len(pols) != strings.Count(spec, ",")+1 {
			t.Errorf("ParseSpec(%q) = %d policies", spec, len(pols))
		}
	}
	// The empty spec is not an error: it means "no policies configured"
	// (the wkbserver -policies default).
	if pols, err := ParseSpec(""); err != nil || len(pols) != 0 {
		t.Errorf("ParseSpec(\"\") = %v, %v; want no policies, no error", pols, err)
	}
	bad := []string{
		",",                       // empty entry
		"nope",                    // unknown policy
		"oversub,oversub",         // duplicate
		"oversub:risk",            // parameter without value
		"oversub:risk=x",          // non-numeric
		"oversub:risk=-1",         // negative risk
		"oversub:eps=2",           // epsilon out of range
		"oversub:nope=1",          // unknown parameter
		"spot:headroom=0",         // out of (0,1]
		"balance:stay=2",          // out of [0,1]
		"OVERSUB",                 // uppercase not in the grammar
		strings.Repeat("x", 2000), // over maxSpecLen
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

func TestDecodeRequest(t *testing.T) {
	req, err := DecodeRequest([]byte(`{"policy":"oversub","subscription":"sub-a"}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if req.Cores != 1 {
		t.Errorf("Cores default = %d, want 1", req.Cores)
	}
	bad := []string{
		``,
		`{}`,                   // missing policy
		`{"policy":"oversub"}`, // missing subscription
		`{"policy":"oversub","subscription":"s","x":1}`, // unknown field
		`{"policy":"oversub","subscription":"s"} trail`, // trailing data
		`{"policy":"oversub","subscription":"s","cores":-1}`,
		`{"policy":"NOPE!","subscription":"s"}`,
		`{"policy":"oversub","subscription":"s","regions":["r","r"]}`, // duplicate region
		`[1,2]`,
	}
	for _, in := range bad {
		if _, err := DecodeRequest([]byte(in)); err == nil {
			t.Errorf("DecodeRequest(%q) accepted", in)
		}
	}
}

func TestEngineDecide(t *testing.T) {
	eng := testEngine(t, "oversub,spot,balance", Options{TraceLevel: TraceSpans, CounterfactualK: 5})

	d, err := eng.Decide(Request{Policy: "oversub", Subscription: "sub-a"})
	if err != nil {
		t.Fatalf("decide: %v", err)
	}
	if !d.Accepted || !strings.HasPrefix(d.Action, "admit:eps=") {
		t.Errorf("oversub decision = %+v, want an admit", d)
	}
	if d.ID != 1 || d.SnapshotStep != 2016 || d.SnapshotFingerprint == "" {
		t.Errorf("decision identity = %+v", d)
	}
	// Alternatives are the rejected runners-up, sorted by score descending.
	for i := 1; i < len(d.Alternatives); i++ {
		if d.Alternatives[i].Score > d.Alternatives[i-1].Score {
			t.Errorf("alternatives unsorted: %+v", d.Alternatives)
		}
	}
	if len(d.Alternatives) > 0 && d.Alternatives[0].Score > d.Score {
		t.Errorf("runner-up outscores the decision: %+v", d)
	}
	if len(d.Spans) == 0 {
		t.Error("TraceSpans level recorded no spans")
	}

	// Unknown subscription: oversub rejects for want of knowledge.
	d, err = eng.Decide(Request{Policy: "oversub", Subscription: "ghost"})
	if err != nil {
		t.Fatalf("decide ghost: %v", err)
	}
	if d.Accepted || d.Action != "reject" {
		t.Errorf("ghost decision = %+v, want reject", d)
	}

	// Spot on a public, short-lived, irregular profile admits.
	d, err = eng.Decide(Request{Policy: "spot", Subscription: "sub-c"})
	if err != nil {
		t.Fatalf("decide spot: %v", err)
	}
	if !d.Accepted {
		t.Errorf("spot decision = %+v, want accepted", d)
	}

	// Balance moves the region-agnostic sub toward a named candidate.
	d, err = eng.Decide(Request{Policy: "balance", Subscription: "sub-a", Regions: []string{"r2"}})
	if err != nil {
		t.Fatalf("decide balance: %v", err)
	}
	if d.Action != "move:r2" {
		t.Errorf("balance action = %q, want move:r2", d.Action)
	}
	// ...but rejects a single-region subscription outright.
	d, _ = eng.Decide(Request{Policy: "balance", Subscription: "sub-b", Regions: []string{"r2"}})
	if d.Accepted {
		t.Errorf("balance accepted ineligible sub: %+v", d)
	}

	// Unknown policy is a typed error naming the configured set.
	if _, err := eng.Decide(Request{Policy: "nope", Subscription: "sub-a"}); err == nil {
		t.Error("unknown policy accepted")
	} else if !strings.Contains(err.Error(), "oversub") {
		t.Errorf("unknown-policy error %q does not name the configured set", err)
	}

	if eng.Ledger().Len() != 5 {
		t.Errorf("ledger has %d entries, want 5", eng.Ledger().Len())
	}
}

func TestTraceLevels(t *testing.T) {
	req := Request{Policy: "oversub", Subscription: "sub-a"}

	eng := testEngine(t, "oversub", Options{TraceLevel: TraceOff})
	d, _ := eng.Decide(req)
	if len(d.Alternatives) != 0 || len(d.Spans) != 0 {
		t.Errorf("TraceOff recorded detail: %+v", d)
	}

	eng = testEngine(t, "oversub", Options{TraceLevel: TraceAlternatives, CounterfactualK: 2})
	d, _ = eng.Decide(req)
	if len(d.Alternatives) == 0 || len(d.Alternatives) > 2 {
		t.Errorf("TraceAlternatives kept %d alternatives, want 1..2", len(d.Alternatives))
	}
	if len(d.Spans) != 0 {
		t.Errorf("TraceAlternatives recorded spans: %+v", d.Spans)
	}
}

func TestCounterfactualReproducesScore(t *testing.T) {
	eng := testEngine(t, "oversub,spot,balance", Options{TraceLevel: TraceAlternatives, CounterfactualK: 4})
	reqs := []Request{
		{Policy: "oversub", Subscription: "sub-a"},
		{Policy: "oversub", Subscription: "sub-b"},
		{Policy: "spot", Subscription: "sub-c"},
		{Policy: "spot", Subscription: "ghost"},
		{Policy: "balance", Subscription: "sub-a", Regions: []string{"r1", "r2"}},
	}
	for _, r := range reqs {
		if _, err := eng.Decide(r); err != nil {
			t.Fatalf("decide %+v: %v", r, err)
		}
	}
	for id := uint64(1); id <= uint64(len(reqs)); id++ {
		cf, err := eng.Counterfactual(id)
		if err != nil {
			t.Fatalf("counterfactual %d: %v", id, err)
		}
		if !cf.Reproduced {
			t.Errorf("entry %d: replay score %v != original %v", id, cf.ReplayScore, cf.OriginalScore)
		}
		if cf.Regret < 0 {
			t.Errorf("entry %d: negative regret %v", id, cf.Regret)
		}
		// The source is static here, so current == snapshot and every
		// alternative must be scoreable against the current snapshot.
		if cf.CurrentFingerprint != cf.SnapshotFingerprint {
			t.Errorf("entry %d: fingerprints diverged on a static source", id)
		}
		for _, a := range cf.Alternatives {
			if !a.CurrentKnown {
				t.Errorf("entry %d: alternative %q lost its current score", id, a.Action)
			}
		}
	}
	if _, err := eng.Counterfactual(999); err == nil {
		t.Error("counterfactual of a missing entry succeeded")
	}
}

func TestLedgerDeterminism(t *testing.T) {
	run := func() string {
		eng := testEngine(t, "oversub,spot,balance", Options{TraceLevel: TraceSpans, CounterfactualK: 3})
		for i := 0; i < 30; i++ {
			sub := []core.SubscriptionID{"sub-a", "sub-b", "sub-c", "ghost"}[i%4]
			pol := []string{"oversub", "spot", "balance"}[i%3]
			req := Request{Policy: pol, Subscription: sub}
			if pol == "balance" {
				req.Regions = []string{"r1", "r2"}
			}
			if _, err := eng.Decide(req); err != nil {
				t.Fatalf("decide: %v", err)
			}
		}
		var buf bytes.Buffer
		if err := eng.Ledger().WriteJSONL(&buf); err != nil {
			t.Fatalf("write ledger: %v", err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("ledger bytes differ across identical runs:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, `"snapshotFingerprint"`) {
		t.Errorf("ledger missing snapshot identity: %s", a)
	}
}

// TestLedgerPaginationUnderConcurrentDecisions drives decisions from many
// goroutines while a reader pages through the ledger with keyset cursors;
// every page walk must see a consistent, gap-free, sorted id sequence even
// as the ledger grows mid-walk.
func TestLedgerPaginationUnderConcurrentDecisions(t *testing.T) {
	eng := testEngine(t, "oversub", Options{})
	const writers, perWriter = 8, 50

	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := eng.Decide(Request{Policy: "oversub", Subscription: "sub-a"}); err != nil {
					t.Errorf("decide: %v", err)
					return
				}
			}
		}()
	}

	// Concurrent reader: page through whatever exists, checking order.
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			items := eng.Ledger().List("")
			pg := kb.Page{Limit: 7}
			var prev uint64
			for {
				page, err := kb.Paginate(items, Decision.Key, pg)
				if err != nil {
					t.Errorf("paginate: %v", err)
					return
				}
				for _, d := range page.Items.([]Decision) {
					if d.ID <= prev {
						t.Errorf("page order broken: %d after %d", d.ID, prev)
						return
					}
					prev = d.ID
				}
				if page.NextCursor == "" {
					break
				}
				pg.Cursor = page.NextCursor
			}
		}
	}()

	writersWG.Wait()
	close(stop)
	readerWG.Wait()

	// Final walk: exactly writers*perWriter entries, ids 1..N without gaps.
	items := eng.Ledger().List("")
	if len(items) != writers*perWriter {
		t.Fatalf("ledger has %d entries, want %d", len(items), writers*perWriter)
	}
	for i, d := range items {
		if d.ID != uint64(i+1) {
			t.Fatalf("entry %d has id %d; ledger ids must be dense", i, d.ID)
		}
	}
	// Page through everything and count.
	pg := kb.Page{Limit: 33}
	var got int
	for {
		page, err := kb.Paginate(items, Decision.Key, pg)
		if err != nil {
			t.Fatalf("paginate: %v", err)
		}
		got += len(page.Items.([]Decision))
		if page.Total != len(items) {
			t.Fatalf("page total = %d, want %d", page.Total, len(items))
		}
		if page.NextCursor == "" {
			break
		}
		pg.Cursor = page.NextCursor
	}
	if got != len(items) {
		t.Fatalf("cursor walk saw %d of %d entries", got, len(items))
	}
}

func TestVitals(t *testing.T) {
	eng := testEngine(t, "oversub,spot", Options{})
	for i := 0; i < 3; i++ {
		eng.Decide(Request{Policy: "oversub", Subscription: "sub-a"})
	}
	eng.Decide(Request{Policy: "oversub", Subscription: "ghost"})
	eng.Counterfactual(1)
	v := eng.Vitals()
	if v.Decisions != 4 || v.Accepted != 3 || v.Rejected != 1 {
		t.Errorf("vitals = %+v", v)
	}
	if v.Counterfactuals != 1 || v.LedgerEntries != 4 {
		t.Errorf("vitals = %+v", v)
	}
	if v.SnapshotFingerprint == "" || v.SnapshotProfiles != 3 {
		t.Errorf("vitals snapshot identity = %+v", v)
	}
	if fmt.Sprint(v.Policies) != "[oversub spot]" {
		t.Errorf("vitals policies = %v", v.Policies)
	}
}

func TestNewEngineValidation(t *testing.T) {
	pols, _ := ParseSpec("oversub")
	if _, err := NewEngine(nil, pols, Options{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewEngine(testKB(), nil, Options{}); err == nil {
		t.Error("empty policy set accepted")
	}
	dup := append(pols, pols[0])
	if _, err := NewEngine(testKB(), dup, Options{}); err == nil {
		t.Error("duplicate policy accepted")
	}
}
