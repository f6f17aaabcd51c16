package cloudlens

// Integration tests over the public API: the full generate -> characterize
// -> report path, the knowledge-base path, and the policy experiments, all
// through the same entry points a downstream user would call.

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"cloudlens/internal/analyze"
	"cloudlens/internal/core"
	"cloudlens/internal/deferral"
	"cloudlens/internal/provision"
)

var (
	integrationOnce sync.Once
	integrationTr   *Trace
	integrationErr  error
)

// integrationTrace generates the default seed-42 universe once per test
// binary; every test here reads it and none mutates it.
func integrationTrace(t *testing.T) *Trace {
	t.Helper()
	integrationOnce.Do(func() {
		integrationTr, integrationErr = GenerateDefault(42)
	})
	if integrationErr != nil {
		t.Fatalf("generate: %v", integrationErr)
	}
	return integrationTr
}

func TestGenerateDefaultProducesBothClouds(t *testing.T) {
	tr := integrationTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if len(tr.VMs) < 10000 {
		t.Fatalf("default universe suspiciously small: %d VMs", len(tr.VMs))
	}
}

func TestCharacterizeAndReport(t *testing.T) {
	ch := Characterize(integrationTrace(t))
	var buf bytes.Buffer
	if err := ch.WriteReport(&buf); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1", "Figure 2", "Figure 3", "Figure 4",
		"Figure 5", "Figure 6", "Figure 7",
		"median VMs per subscription",
		"shortest-bin lifetime share",
		"single-region core share",
		"median VM-node utilization correlation",
		"ServiceX daily utilization by region",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Cross-check a few report inputs against direct field access.
	if ch.Fig1a.MedianVMsPerSub.Private <= ch.Fig1a.MedianVMsPerSub.Public {
		t.Fatal("characterization lost the deployment-size gap")
	}
}

func TestKnowledgeBasePath(t *testing.T) {
	tr := integrationTrace(t)
	store := ExtractKnowledgeBase(tr)
	if store.Len() == 0 {
		t.Fatal("empty knowledge base")
	}
	if KnowledgeBaseHandler(store) == nil {
		t.Fatal("nil HTTP handler")
	}
}

func TestPolicyEntryPoints(t *testing.T) {
	tr := integrationTrace(t)

	ov, err := RunOversubscription(tr, OversubOptions{})
	if err != nil {
		t.Fatalf("oversubscription: %v", err)
	}
	if lo, hi := ov.GainRange(); lo <= 0 || hi <= lo {
		t.Fatalf("oversubscription gain band (%v, %v) implausible", lo, hi)
	}

	sp, err := RunSpotHarvest(tr, SpotOptions{})
	if err != nil {
		t.Fatalf("spot: %v", err)
	}
	if sp.SpotCoreHours <= 0 {
		t.Fatal("no spot harvest")
	}

	bal, err := RunRegionBalance(tr, nil, "canada-a", "canada-b")
	if err != nil {
		t.Fatalf("balance: %v", err)
	}
	if !bal.HealthImproved() {
		t.Fatal("balance pilot failed to improve source health")
	}

	df, err := deferral.Run(tr, deferral.Options{})
	if err != nil {
		t.Fatalf("deferral: %v", err)
	}
	if df.DeferrableVMs == 0 {
		t.Fatal("no deferrable jobs")
	}
}

func TestTraceSaveLoadThroughFacade(t *testing.T) {
	tr := integrationTrace(t)
	path := t.TempDir() + "/trace.json.gz"
	if err := tr.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadTrace(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(got.VMs) != len(tr.VMs) {
		t.Fatalf("round trip lost VMs: %d != %d", len(got.VMs), len(tr.VMs))
	}
}

func TestConfigOverrides(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Scale = 0.25
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("generate scaled: %v", err)
	}
	if len(tr.VMs) >= len(integrationTrace(t).VMs) {
		t.Fatal("scale override ignored")
	}
}

func TestExportCSVWritesAllFigures(t *testing.T) {
	ch := Characterize(integrationTrace(t))
	dir := t.TempDir()
	if err := ch.ExportCSV(dir); err != nil {
		t.Fatalf("ExportCSV: %v", err)
	}
	want := []string{
		"fig1a.csv", "fig1b.csv", "fig2.csv", "fig3a.csv", "fig3b.csv",
		"fig3c.csv", "fig3d.csv", "fig4a.csv", "fig4b.csv",
		"fig5_samples.csv", "fig5d.csv", "fig6_weekly.csv",
		"fig6_daily.csv", "fig7a.csv", "fig7b.csv", "fig7c.csv",
	}
	for _, name := range want {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing export %s: %v", name, err)
			continue
		}
		if info.Size() < 20 {
			t.Errorf("export %s suspiciously small (%d bytes)", name, info.Size())
		}
	}
	// Spot-check one file parses as CSV with the expected header.
	f, err := os.Open(filepath.Join(dir, "fig1a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("parse fig1a.csv: %v", err)
	}
	if len(records) < 10 || records[0][0] != "cloud" {
		t.Fatalf("fig1a.csv malformed: %d rows, header %v", len(records), records[0])
	}
}

// TestExportFig3dRowsInCloudRegionOrder holds fig3d.csv to one row order,
// clouds in core order and each cloud's regions by name, so every export of
// the same characterization is byte-identical; the rows used to follow map
// order. Ten exports make a map-order writer fail all but surely.
func TestExportFig3dRowsInCloudRegionOrder(t *testing.T) {
	ch := &Characterization{Fig3d: analyze.ComputeFig3d(integrationTrace(t))}
	want := [][]string{{"cloud", "region", "creation_cv"}}
	for _, cloud := range core.Clouds() {
		perRegion := ch.Fig3d.PerRegionCV.Get(cloud)
		if len(perRegion) < 2 {
			t.Fatalf("%s has %d regions; the order check needs two", cloud, len(perRegion))
		}
		var regions []string
		for r := range perRegion {
			regions = append(regions, r)
		}
		sort.Strings(regions)
		for _, r := range regions {
			want = append(want, []string{cloud.String(), r, fs(perRegion[r])})
		}
	}
	for run := 0; run < 10; run++ {
		var buf bytes.Buffer
		cw := csv.NewWriter(&buf)
		if err := ch.exportFig3d(cw); err != nil {
			t.Fatal(err)
		}
		cw.Flush()
		got, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("export %d: fig3d rows %v, want %v", run, got, want)
		}
	}
}

func TestNewPolicyFacades(t *testing.T) {
	tr := integrationTrace(t)
	results, err := RunSpotMixture(tr, MixtureOptions{})
	if err != nil {
		t.Fatalf("RunSpotMixture: %v", err)
	}
	if _, ok := CheapestReliable(results); !ok {
		t.Fatal("no reliable mixture policy")
	}
	res, err := provision.Run(tr, ExtractKnowledgeBase(tr), provision.Options{})
	if err != nil {
		t.Fatalf("provision: %v", err)
	}
	if res.Predictive.ThrottledCoreHours > res.Reactive.ThrottledCoreHours {
		t.Fatal("prediction lost to reaction")
	}
}
