package policy

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudlens/internal/kb"
)

// FuzzParseSpec drives the -policies grammar with arbitrary operator
// input. Parsing must never panic, and anything it accepts must be
// buildable into a usable engine: distinct lowercase names within the
// registry, each policy answering Evaluate without panicking on an empty
// snapshot.
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("oversub")
	f.Add("oversub,spot,balance")
	f.Add("oversub:risk=2:eps=0.01")
	f.Add("spot:headroom=0.5:ondemand=0.3")
	f.Add("balance:stay=0.1")
	f.Add(",")
	f.Add("oversub,oversub")
	f.Add("oversub:risk")
	f.Add("oversub:risk=NaN")
	f.Add("oversub:eps=-1")
	f.Add("OVERSUB")
	f.Add("a:" + strings.Repeat("k=v:", 40))
	f.Add(strings.Repeat("x,", 40))
	f.Fuzz(func(t *testing.T, spec string) {
		pols, err := ParseSpec(spec)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, p := range pols {
			name := p.Name()
			if name == "" || name != strings.ToLower(name) {
				t.Fatalf("ParseSpec(%q) built policy with name %q", spec, name)
			}
			if seen[name] {
				t.Fatalf("ParseSpec(%q) built duplicate policy %q", spec, name)
			}
			seen[name] = true
			// Every accepted policy must evaluate an arbitrary request
			// against an empty snapshot without panicking.
			alts := p.Evaluate(kb.SnapshotOf(0, 0), Request{
				Policy:       name,
				Subscription: "fuzz-sub",
				Cores:        1,
				Regions:      []string{"r1"},
			}, nil)
			for _, a := range alts {
				if a.Action == "" {
					t.Fatalf("policy %q emitted an unnamed alternative", name)
				}
			}
		}
	})
}

// FuzzDecodeRequest feeds arbitrary request bodies through the decode
// path behind POST /api/v1/policy/decide. Decoding must never panic, and
// every accepted request must satisfy its own validation contract —
// bounded fields, normalized defaults — so the engine can trust it.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"policy":"oversub","subscription":"sub-a"}`))
	f.Add([]byte(`{"policy":"spot","subscription":"s","cores":8,"regions":["r1","r2"]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte(`{"policy":"oversub","subscription":"s"} trailing`))
	f.Add([]byte(`{"policy":"oversub","subscription":"s","unknown":true}`))
	f.Add([]byte(`{"policy":"oversub","subscription":"s","cores":-1}`))
	f.Add([]byte(`{"policy":"oversub","subscription":"s","cores":1e30}`))
	f.Add([]byte(`{"policy":"x","subscription":"` + strings.Repeat("s", 300) + `"}`))
	f.Add([]byte(`{"policy":"x","subscription":"s","regions":["a","a"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		if req.Policy == "" || req.Subscription == "" {
			t.Fatalf("DecodeRequest(%q) accepted an unnamed request: %+v", data, req)
		}
		if req.Cores < 1 || req.Cores > 1<<20 {
			t.Fatalf("DecodeRequest(%q) accepted cores %d", data, req.Cores)
		}
		if len(req.Regions) > 16 {
			t.Fatalf("DecodeRequest(%q) accepted %d regions", data, len(req.Regions))
		}
		seen := map[string]bool{}
		for _, r := range req.Regions {
			if r == "" || seen[r] {
				t.Fatalf("DecodeRequest(%q) accepted region list %v", data, req.Regions)
			}
			seen[r] = true
		}
		// Accepted requests re-validate cleanly (defaults already applied).
		if err := req.Validate(); err != nil {
			t.Fatalf("DecodeRequest(%q) returned invalid request %+v: %v", data, req, err)
		}
	})
}

// TestWritePolicyCorpus regenerates the checked-in seed corpora for the
// policy fuzz targets. Set CLOUDLENS_WRITE_CORPUS=1 to rewrite testdata.
func TestWritePolicyCorpus(t *testing.T) {
	if os.Getenv("CLOUDLENS_WRITE_CORPUS") == "" {
		t.Skip("corpus generator; set CLOUDLENS_WRITE_CORPUS=1 to rewrite testdata")
	}
	stringCorpora := map[string]map[string]string{
		"FuzzParseSpec": {
			"empty":         "",
			"single":        "oversub",
			"full-set":      "oversub,spot,balance",
			"with-params":   "oversub:risk=2:eps=0.01",
			"spot-params":   "spot:headroom=0.5:ondemand=0.3",
			"balance-stay":  "balance:stay=0.1",
			"bare-comma":    ",",
			"duplicate":     "oversub,oversub",
			"missing-value": "oversub:risk",
			"nan-param":     "oversub:risk=NaN",
			"uppercase":     "OVERSUB",
		},
	}
	byteCorpora := map[string]map[string]string{
		"FuzzDecodeRequest": {
			"minimal":       `{"policy":"oversub","subscription":"sub-a"}`,
			"full":          `{"policy":"spot","subscription":"s","cores":8,"regions":["r1","r2"]}`,
			"empty-object":  `{}`,
			"empty":         ``,
			"null":          `null`,
			"array":         `[1,2]`,
			"trailing":      `{"policy":"oversub","subscription":"s"} trailing`,
			"unknown-field": `{"policy":"oversub","subscription":"s","unknown":true}`,
			"negative-core": `{"policy":"oversub","subscription":"s","cores":-1}`,
			"dup-regions":   `{"policy":"x","subscription":"s","regions":["a","a"]}`,
		},
	}
	write := func(fuzzName, name, content string) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for fuzzName, entries := range stringCorpora {
		for name, s := range entries {
			write(fuzzName, name, fmt.Sprintf("go test fuzz v1\nstring(%q)\n", s))
		}
	}
	for fuzzName, entries := range byteCorpora {
		for name, s := range entries {
			write(fuzzName, name, fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s))
		}
	}
}
