package main

import (
	"bytes"
	"errors"
	"flag"
	"path/filepath"
	"testing"

	"cloudlens/internal/workload"
)

// TestSavedTraceReportsLikeGeneration is the load path: a bundle written as
// cloudgen writes it (trace.ExportDir), reported with -trace, prints the
// same bytes as generating in-process at the same seed and scale.
func TestSavedTraceReportsLikeGeneration(t *testing.T) {
	cfg := workload.DefaultConfig(42)
	cfg.Scale = 0.05
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := tr.ExportDir(dir); err != nil {
		t.Fatal(err)
	}

	var generated, loaded bytes.Buffer
	if err := run([]string{"-seed", "42", "-scale", "0.05"}, &generated); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := run([]string{"-trace", filepath.Join(dir, "trace.json.gz")}, &loaded); err != nil {
		t.Fatalf("-trace: %v", err)
	}
	if generated.Len() == 0 || !bytes.Equal(generated.Bytes(), loaded.Bytes()) {
		t.Errorf("-trace report (%d bytes) differs from the generated one (%d bytes)", loaded.Len(), generated.Len())
	}
}

var errClosed = errors.New("stdout closed")

// failingWriter refuses every write, as a closed pipe or a full disk does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errClosed }

func TestFailingStdoutIsAnError(t *testing.T) {
	err := run([]string{"-scale", "0.05"}, failingWriter{})
	if !errors.Is(err, errClosed) {
		t.Errorf("run over a failing stdout returned %v, want the write error", err)
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp (exit 0)", err)
	}
	if out.Len() != 0 {
		t.Errorf("-h wrote %q to stdout", out.String())
	}
}
