package cloudlens

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cloudlens/internal/obs"
)

// workCounts is what the batch kernels count, one atomic add per series:
// series classified, periodic.Detect calls, and VM-steps materialized by
// usage.Params.SeriesInto.
type workCounts [3]int64

// countWork returns how far f moved the three counters.
func countWork(f func()) (d workCounts) {
	counters := [len(d)]*obs.Counter{
		obs.Default.Counter("cloudlens_classify_series_total", ""),
		obs.Default.Counter("cloudlens_periodic_detect_total", ""),
		obs.Default.Counter("cloudlens_usage_series_steps_total", ""),
	}
	for i, c := range counters {
		d[i] = -c.Value()
	}
	f()
	for i, c := range counters {
		d[i] += c.Value()
	}
	return d
}

// TestBatchGoldenHashes pins the batch pipeline's two outputs on the default
// full-scale universe: the SHA-256 of the characterization's JSON and the
// knowledge base's content fingerprint (the same pair cloudbench's batch-week
// workload prints). A change to either means the analysis output changed —
// a kernel rewrite that claims to be output-neutral must leave both alone.
// It also pins how much work each entry point does, the baseline for any
// later change that shares work between the two. Characterize materializes
// every alive VM-step once, plus its Figure 5 exemplars: three full weeks
// and one day.
func TestBatchGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale universes; skipped under -short")
	}
	for _, tt := range []struct {
		seed              uint64
		characterization  string
		knowledgeBaseHash string
		characterizeWork  workCounts
		extractWork       workCounts
	}{
		{42, "b3df1d936025d77db523230a5084a37dddc29c7259cc321115c9c93367b8d1f7", "fnv1a:a670da8cf3b6acf0",
			workCounts{12678, 8145, 26269281}, workCounts{8894, 5093, 17718406}},
		{7, "c7926c8328b3cc402704047be79dc5a5dc9bd82d3bfbc685737969f82995e8d2", "fnv1a:3d2b46e8930653bc",
			workCounts{12414, 7739, 25627365}, workCounts{9031, 5108, 18025799}},
	} {
		tr := integrationTrace(t)
		if tt.seed != 42 {
			var err error
			if tr, err = GenerateDefault(tt.seed); err != nil {
				t.Fatalf("seed %d: generate: %v", tt.seed, err)
			}
		}
		var ch *Characterization
		var store *KnowledgeBase
		characterizeWork := countWork(func() { ch = Characterize(tr) })
		extractWork := countWork(func() { store = ExtractKnowledgeBase(tr) })

		data, err := json.Marshal(ch)
		if err != nil {
			t.Fatalf("seed %d: marshal characterization: %v", tt.seed, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tt.characterization {
			t.Errorf("seed %d: characterization sha256 %s, want %s", tt.seed, got, tt.characterization)
		}
		if got := store.Fingerprint(); got != tt.knowledgeBaseHash {
			t.Errorf("seed %d: knowledge-base fingerprint %s, want %s", tt.seed, got, tt.knowledgeBaseHash)
		}
		if characterizeWork != tt.characterizeWork || extractWork != tt.extractWork {
			t.Errorf("seed %d: Characterize counted %v, want %v; ExtractKnowledgeBase %v, want %v",
				tt.seed, characterizeWork, tt.characterizeWork, extractWork, tt.extractWork)
		}
	}
}

// TestBatchGoldenWorkRepeats calls each batch entry point twice on one trace
// and requires the second call to classify, detect and materialize exactly
// what the first did. Process-lifetime state in the kernels is limited to
// transform plans keyed by length and pooled scratch that is overwritten
// before it is read; anything that remembered a trace, a VM or a series
// would show up here as a second call that does less.
func TestBatchGoldenWorkRepeats(t *testing.T) {
	tr, err := Generate(determinismConfig(7))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for _, tt := range []struct {
		name string
		call func()
	}{
		{"Characterize", func() { Characterize(tr) }},
		{"ExtractKnowledgeBase", func() { ExtractKnowledgeBase(tr) }},
	} {
		first, second := countWork(tt.call), countWork(tt.call)
		for i, n := range first {
			if n == 0 {
				t.Errorf("%s: counter %d did not move", tt.name, i)
			}
		}
		if second != first {
			t.Errorf("%s: second call counted %v, first %v", tt.name, second, first)
		}
	}
}

// TestSeriesFigureHashesPinned pins, on the small determinism universe, the
// SHA-256 of the JSON of every figure that reads VM utilization series and
// of the whole characterization. It runs without -short, so a change to how
// those figures read the series is caught by the everyday test run, not only
// by the full-scale TestBatchGoldenHashes.
func TestSeriesFigureHashesPinned(t *testing.T) {
	tr, err := Generate(determinismConfig(7))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ch := Characterize(tr)
	for _, tt := range []struct {
		name string
		v    any
		want string
	}{
		{"fig5Samples", ch.Fig5Samples, "aafa464e6b8eb18fa3c0e7f80c23a1133eae5ab1a8db97abeee69aa7df99a3ea"},
		{"fig5d", ch.Fig5d, "1d7adef934667f14b3acb1898e1711e0568a549e6d016e77fd20023ee03e1f57"},
		{"fig6Weekly", ch.Fig6Weekly, "98f0233cccca1405398994da71aee793f7c4b1c7ed49929820d04e275657c7a1"},
		{"fig6Daily", ch.Fig6Daily, "da19c088fb4a8aa5d7a3f2787e8cd6355b8aed90734596893b0905ee4bd06e53"},
		{"fig7a", ch.Fig7a, "bf24753f415eb3b92baeed1ff247530f633ac79c5c87feb33bbb572d8b169801"},
		{"fig7b", ch.Fig7b, "8a7ae1dd82673a08e21d2250713941734b39c4275f42df357d696b71d953c172"},
		{"fig7c", ch.Fig7c, "d17973fb981f9eb3d9230c65529fcd6521736f95f5a9929385208e88f1b3db2e"},
		{"characterization", ch, "f98728ef57ef18d61f0de432d2e9f86d5d54a93dd11beb580c951bb6173ca6bc"},
	} {
		data, err := json.Marshal(tt.v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tt.name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tt.want {
			t.Errorf("%s: sha256 %s, want %s", tt.name, got, tt.want)
		}
	}
}
