package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudlens/internal/workload"
)

// TestBundleHoldsTheGeneratedTrace: the bundle's trace.json.gz decompresses
// to the JSON of the trace generated in-process at the same seed and scale,
// and -util-sample adds the utilization file.
func TestBundleHoldsTheGeneratedTrace(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-seed", "42", "-scale", "0.05", "-out", dir, "-util-sample", "3"}, &out); err != nil {
		t.Fatalf("cloudgen: %v", err)
	}
	if !strings.HasPrefix(out.String(), "generated ") || !strings.Contains(out.String(), "(seed=42 scale=0.05,") {
		t.Errorf("cloudgen printed %q", out.String())
	}

	f, err := os.Open(filepath.Join(dir, "trace.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}

	cfg := workload.DefaultConfig(42)
	cfg.Scale = 0.05
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tr.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("bundle trace (%d bytes) differs from the in-process trace (%d bytes)", len(got), want.Len())
	}
	for _, name := range []string{"inventory.csv", "utilization.csv"} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v (empty or missing)", name, err)
		}
	}
}

// TestServerlessSpecOverridesTheFlags: -seed and -scale are the base, and
// the -serverless spec's own keys win.
func TestServerlessSpecOverridesTheFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seed", "9", "-scale", "0.05", "-serverless", "seed=7", "-out", t.TempDir()}, &out); err != nil {
		t.Fatalf("cloudgen: %v", err)
	}
	if !strings.Contains(out.String(), "serverless-family VMs (seed=7 scale=0.05,") {
		t.Errorf("cloudgen printed %q, want seed 7 from the spec and scale 0.05 from the flag", out.String())
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
