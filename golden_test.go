package cloudlens

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cloudlens/internal/kb"
)

// TestBatchGoldenHashes pins the batch pipeline's two outputs on the default
// full-scale universe: the SHA-256 of the characterization's JSON and the
// knowledge base's content fingerprint (the same pair cloudbench's batch-week
// workload prints). A change to either means the analysis output changed —
// a kernel rewrite that claims to be output-neutral must leave both alone.
func TestBatchGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale universes; skipped under -short")
	}
	for _, tt := range []struct {
		seed              uint64
		characterization  string
		knowledgeBaseHash string
	}{
		{42, "b3df1d936025d77db523230a5084a37dddc29c7259cc321115c9c93367b8d1f7", "fnv1a:a670da8cf3b6acf0"},
		{7, "c7926c8328b3cc402704047be79dc5a5dc9bd82d3bfbc685737969f82995e8d2", "fnv1a:3d2b46e8930653bc"},
	} {
		tr := integrationTrace(t)
		if tt.seed != 42 {
			var err error
			if tr, err = GenerateDefault(tt.seed); err != nil {
				t.Fatalf("seed %d: generate: %v", tt.seed, err)
			}
		}
		data, err := json.Marshal(Characterize(tr))
		if err != nil {
			t.Fatalf("seed %d: marshal characterization: %v", tt.seed, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tt.characterization {
			t.Errorf("seed %d: characterization sha256 %s, want %s", tt.seed, got, tt.characterization)
		}
		if got := kb.NewSnapshot(ExtractKnowledgeBase(tr), tr.Grid.N, 0).Fingerprint(); got != tt.knowledgeBaseHash {
			t.Errorf("seed %d: knowledge-base fingerprint %s, want %s", tt.seed, got, tt.knowledgeBaseHash)
		}
	}
}
