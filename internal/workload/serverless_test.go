package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cloudlens/internal/core"
)

// TestGenerateServerlessDeterminism: the same config yields the identical
// trace, a different seed a different one.
func TestGenerateServerlessDeterminism(t *testing.T) {
	cfg := DefaultServerlessConfig(7)
	cfg.Apps = 8
	a, err := GenerateServerless(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	b, err := GenerateServerless(cfg)
	if err != nil {
		t.Fatalf("regenerate: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different traces")
	}
	cfg.Seed = 8
	c, err := GenerateServerless(cfg)
	if err != nil {
		t.Fatalf("generate seed 8: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestGenerateServerlessShape checks the family contract: the trace is
// tagged serverless, rides the one-minute grid, passes Validate, and draws
// every function's pattern (once classified) from the family taxonomy.
func TestGenerateServerlessShape(t *testing.T) {
	tr, err := GenerateServerless(DefaultServerlessConfig(42))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if tr.Family != core.FamilyServerless {
		t.Fatalf("family %s, want serverless", tr.Family)
	}
	if tr.Grid.Step != time.Minute {
		t.Fatalf("grid step %v, want 1m", tr.Grid.Step)
	}
	if got, want := tr.Grid.N, 2*24*60; got != want {
		t.Fatalf("grid steps %d, want %d", got, want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if len(tr.VMs) == 0 {
		t.Fatal("no function slots generated")
	}
	for i := range tr.VMs {
		v := &tr.VMs[i]
		if v.Cloud != core.Public {
			t.Fatalf("function slot %d on %s, want public", v.ID, v.Cloud)
		}
		if v.Size != functionSlotSize {
			t.Fatalf("function slot %d sized %+v, want the fixed slot %+v", v.ID, v.Size, functionSlotSize)
		}
	}
}

// TestServerlessScaleGrowsUniverse: scale multiplies the app count, and
// with it the slot roster.
func TestServerlessScaleGrowsUniverse(t *testing.T) {
	small := DefaultServerlessConfig(3)
	small.Scale = 0.25
	big := DefaultServerlessConfig(3)
	big.Scale = 1
	a, err := GenerateServerless(small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateServerless(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.VMs) >= len(b.VMs) {
		t.Fatalf("scale 0.25 produced %d slots, scale 1 produced %d", len(a.VMs), len(b.VMs))
	}
}

// TestServerlessConfigValidate walks the rejection paths.
func TestServerlessConfigValidate(t *testing.T) {
	mutations := map[string]func(*ServerlessConfig){
		"zero scale":        func(c *ServerlessConfig) { c.Scale = 0 },
		"empty grid":        func(c *ServerlessConfig) { c.Grid.N = 0 },
		"7s step":           func(c *ServerlessConfig) { c.Grid.Step = 7 * time.Second },
		"under two days":    func(c *ServerlessConfig) { c.Grid.N = c.Grid.StepsPerDay() },
		"no apps":           func(c *ServerlessConfig) { c.Apps = 0 },
		"no functions":      func(c *ServerlessConfig) { c.FunctionsPerApp = 0 },
		"zero zipf":         func(c *ServerlessConfig) { c.ZipfS = 0 },
		"cold start > 1":    func(c *ServerlessConfig) { c.ColdStartPenalty = 1.5 },
		"negative churn":    func(c *ServerlessConfig) { c.ChurnFraction = -0.1 },
		"churn over one":    func(c *ServerlessConfig) { c.ChurnFraction = 1.1 },
		"nan cold penalty":  func(c *ServerlessConfig) { c.ColdStartPenalty = nan() },
		"negative exponent": func(c *ServerlessConfig) { c.ZipfS = -1 },
	}
	for name, mutate := range mutations {
		cfg := DefaultServerlessConfig(1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", name)
		}
	}
	ok := DefaultServerlessConfig(1)
	if err := ok.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	// Sub-minute steps that divide an hour are part of the contract.
	ok.Grid.Step = 30 * time.Second
	ok.Grid.N = 2 * ok.Grid.StepsPerDay()
	if err := ok.Validate(); err != nil {
		t.Errorf("30s grid rejected: %v", err)
	}
}

func nan() float64 { var z float64; return z / z }

// TestParseServerlessSpecRoundTrip: String() renders a spec Parse maps back
// to the identical config, for defaults and for an everything-overridden
// config.
func TestParseServerlessSpecRoundTrip(t *testing.T) {
	cases := []ServerlessConfig{
		DefaultServerlessConfig(0),
		{
			Seed: 99, Scale: 0.5, Grid: ServerlessGrid(3),
			Apps: 10, FunctionsPerApp: 3, ZipfS: 0.9,
			ColdStartPenalty: 0.2, ChurnFraction: 0.05,
		},
	}
	cases[1].Grid.Step = 30 * time.Second
	cases[1].Grid.N = 3 * cases[1].Grid.StepsPerDay()
	for _, want := range cases {
		got, err := ParseServerlessSpec(want.String(), 0, 1)
		if err != nil {
			t.Fatalf("parse %q: %v", want.String(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip of %q:\n got %+v\nwant %+v", want.String(), got, want)
		}
	}
}

// TestParseServerlessSpecGrammar covers the grammar's edges: defaults,
// days/steps exclusivity, duplicate keys, unknown keys, bad values.
func TestParseServerlessSpecGrammar(t *testing.T) {
	if cfg, err := ParseServerlessSpec("", 0, 1); err != nil || !reflect.DeepEqual(cfg, DefaultServerlessConfig(0)) {
		t.Errorf("empty spec: cfg=%+v err=%v, want the defaults", cfg, err)
	}
	cfg, err := ParseServerlessSpec("step=30s,days=3", 0, 1)
	if err != nil {
		t.Fatalf("step+days: %v", err)
	}
	if cfg.Grid.Step != 30*time.Second || cfg.Grid.N != 3*cfg.Grid.StepsPerDay() {
		t.Errorf("step+days: grid %+v", cfg.Grid)
	}
	// A new step alone keeps the default two-day window at the new
	// resolution.
	cfg, err = ParseServerlessSpec("step=15m", 0, 1)
	if err != nil {
		t.Fatalf("step alone: %v", err)
	}
	if cfg.Grid.N != 2*cfg.Grid.StepsPerDay() {
		t.Errorf("step alone: N=%d, want two days (%d)", cfg.Grid.N, 2*cfg.Grid.StepsPerDay())
	}
	for _, bad := range []string{
		"days=2,steps=100", // mutually exclusive
		"apps=3,apps=4",    // duplicate key
		"frobnicate=1",     // unknown key
		"apps",             // not key=value
		"zipf=banana",      // bad number
		"step=7s",          // does not divide an hour
		"step=0s",          // degenerate
		"days=-1",          // negative window
		"seed=-3",          // seed is unsigned
		"apps=0",           // fails Validate
		"days=1",           // under the two-day minimum
		"scale=0",          // fails Validate
		"churn=2",          // fails Validate
		"steps=5",          // under the two-day minimum
		"cold=-0.5",        // fails Validate
		"zipf=NaN",         // fails Validate
		"zipf=+Inf",        // fails Validate
		"scale=NaN",        // fails Validate
		"scale=Inf",        // fails Validate
		"step=1h,steps=47", // under two days at 1h resolution
	} {
		if _, err := ParseServerlessSpec(bad, 0, 1); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestParseServerlessSpecBase: the seed and scale arguments are the base
// (the commands' -seed and -scale flags), and the spec's own seed and
// scale keys override them.
func TestParseServerlessSpecBase(t *testing.T) {
	for _, c := range []struct {
		spec      string
		wantSeed  uint64
		wantScale float64
	}{
		{"", 9, 0.5},
		{"apps=10", 9, 0.5},
		{"seed=7", 7, 0.5},
		{"scale=2", 9, 2},
		{"seed=7,scale=2", 7, 2},
	} {
		cfg, err := ParseServerlessSpec(c.spec, 9, 0.5)
		if err != nil {
			t.Fatalf("spec %q: %v", c.spec, err)
		}
		if cfg.Seed != c.wantSeed || cfg.Scale != c.wantScale {
			t.Errorf("spec %q over seed 9, scale 0.5: got seed %d scale %v, want %d and %v",
				c.spec, cfg.Seed, cfg.Scale, c.wantSeed, c.wantScale)
		}
	}
	if _, err := ParseServerlessSpec("", 9, -1); err == nil {
		t.Error("a negative base scale was accepted")
	}
}

// FuzzParseServerlessSpec drives the -serverless flag decoder with
// arbitrary strings: it must never panic, and any accepted config must
// pass Validate and survive a String()→Parse round trip. The round trip
// parses over a different base: String() renders seed and scale, so the
// base must not leak into it.
func FuzzParseServerlessSpec(f *testing.F) {
	for _, seed := range serverlessSpecCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseServerlessSpec(spec, 7, 2)
		if err != nil {
			return // rejection is the correct outcome for most inputs
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("accepted spec %q fails Validate: %v", spec, verr)
		}
		again, err := ParseServerlessSpec(cfg.String(), 0, 1)
		if err != nil {
			t.Fatalf("String() of accepted spec %q does not re-parse: %v", spec, err)
		}
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("round trip of %q diverged:\n got %+v\nwant %+v", spec, again, cfg)
		}
	})
}

// serverlessSpecCorpus is the seed corpus shared by the fuzz target and the
// corpus writer: the documented example, every key, both window grammars,
// sub-minute steps, and a sample of near-miss rejections.
func serverlessSpecCorpus() []string {
	return []string{
		"",
		"apps=24,fns=8,zipf=1.1,cold=0.35,step=30s,days=2,seed=7",
		"apps=10,fns=3,zipf=0.9,cold=0.2,churn=0.05,scale=0.5,seed=99",
		"step=15s,days=2",
		"step=1m,steps=2880",
		"days=3",
		"steps=4320",
		"scale=2",
		"churn=1",
		"step=7s",
		"days=2,steps=100",
		"apps=3,apps=4",
		"frobnicate=1",
		"zipf=banana",
		"seed=18446744073709551615",
		" apps = 5 ,, fns=2",
		"zipf=nAn",
	}
}

// TestWriteParseServerlessSpecCorpus regenerates the checked-in seed corpus
// for FuzzParseServerlessSpec. Set CLOUDLENS_WRITE_CORPUS=1 to rewrite
// testdata.
func TestWriteParseServerlessSpecCorpus(t *testing.T) {
	if os.Getenv("CLOUDLENS_WRITE_CORPUS") == "" {
		t.Skip("corpus generator; set CLOUDLENS_WRITE_CORPUS=1 to rewrite testdata")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzParseServerlessSpec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, spec := range serverlessSpecCorpus() {
		content := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", spec)
		name := fmt.Sprintf("spec-%02d", i)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
