package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// allGolden is `policysim -seed 42 -scale 0.05 -experiment all`'s output:
// every pilot's printed figures, which no refactor may move.
const allGolden = "testdata/all_seed42_scale0.05.txt"

// sections lists the report section titles in out, in order: every line
// underlined by a row of '=' of its own length.
func sections(out string) []string {
	lines := strings.Split(out, "\n")
	var titles []string
	for i := 1; i < len(lines); i++ {
		if u := lines[i]; u != "" && u == strings.Repeat("=", len(u)) && len(lines[i-1]) == len(u) {
			titles = append(titles, lines[i-1])
		}
	}
	return titles
}

func runPolicysim(t *testing.T, experiment string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-experiment", experiment}, &buf); err != nil {
		t.Fatalf("-experiment %s: %v", experiment, err)
	}
	return buf.String()
}

func TestEachPilotPrintsItsOwnSection(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and replays a trace per pilot")
	}
	for _, p := range pilots(engineConfig{}) {
		got := sections(runPolicysim(t, p.name))
		if len(got) != 1 || got[0] != p.title {
			t.Errorf("-experiment %s printed sections %q, want just %q", p.name, got, p.title)
		}
	}
}

// TestAllPrintsEverySectionInTableOrder also holds the whole report to
// allGolden byte for byte.
func TestAllPrintsEverySectionInTableOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and replays a trace")
	}
	table := pilots(engineConfig{})
	out := runPolicysim(t, "all")
	want, err := os.ReadFile(allGolden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		gotLines, wantLines := strings.Split(out, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("output differs from %s at line %d:\ngot  %q\nwant %q", allGolden, i+1, g, w)
				break
			}
		}
	}
	got := sections(out)
	if len(got) != len(table) {
		t.Fatalf("-experiment all printed %d sections %q, want %d", len(got), got, len(table))
	}
	for i, p := range table {
		if got[i] != p.title {
			t.Errorf("section %d is %q, want %q", i, got[i], p.title)
		}
	}
}

func TestUnknownExperimentListsTheTable(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "oversub"}, &buf)
	if err == nil {
		t.Fatal("-experiment oversub succeeded; the alias is gone")
	}
	for _, p := range pilots(engineConfig{}) {
		if !strings.Contains(err.Error(), p.name) {
			t.Errorf("error %q does not name %q", err, p.name)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("an unknown experiment printed %q", buf.String())
	}
}
