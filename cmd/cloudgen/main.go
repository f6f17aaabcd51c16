// Command cloudgen generates a synthetic cloud trace — the substitute for
// the paper's proprietary Azure dataset — and exports it as a bundle:
// trace.json.gz (the full dataset, reloadable by the other tools) plus
// inventory.csv (one row per VM, in the spirit of the public Azure VM
// traces).
//
// Usage:
//
//	cloudgen -out ./trace-bundle [-seed 42] [-scale 1.0] [-util-sample 100]
//	cloudgen -out ./fn-bundle -family serverless [-serverless apps=24,step=30s,days=2]
//
// The default is the CPU-utilization family (one week at five-minute
// resolution). -family serverless switches to the serverless invocation
// family: per-function invocation-count series on a one-minute grid, with
// optional overrides in the -serverless key=value grammar (passing
// -serverless implies -family serverless).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "cloudgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cloudgen", flag.ContinueOnError)
	var (
		seed       = fs.Uint64("seed", 42, "generation seed (deterministic)")
		scale      = fs.Float64("scale", 1.0, "universe scale multiplier")
		family     = fs.String("family", "cpu", "workload family: cpu | serverless")
		serverless = fs.String("serverless", "", "serverless-family overrides as key=value pairs, e.g. apps=24,fns=8,step=30s,days=2; keys apps, fns, zipf, cold, churn, step, days, steps, scale, seed (seed and scale win over -seed and -scale); implies -family serverless")
		out        = fs.String("out", "trace-bundle", "output directory")
		utilSample = fs.Int("util-sample", 0, "also export the per-step utilization series of the first N VMs (0 = skip)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *trace.Trace
	var err error
	effSeed, effScale := *seed, *scale
	switch {
	case *serverless != "" || *family == "serverless":
		var cfg workload.ServerlessConfig
		cfg, err = workload.ParseServerlessSpec(*serverless, *seed, *scale)
		if err != nil {
			return err
		}
		effSeed, effScale = cfg.Seed, cfg.Scale
		tr, err = workload.GenerateServerless(cfg)
	case *family == "cpu":
		cfg := workload.DefaultConfig(*seed)
		cfg.Scale = *scale
		tr, err = workload.Generate(cfg)
	default:
		return fmt.Errorf("unknown -family %q (want cpu or serverless)", *family)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "generated %d %s-family VMs (seed=%d scale=%.2f, %d allocation failures)\n",
		len(tr.VMs), tr.Family, effSeed, effScale, tr.Meta.AllocationFailures)

	if err := tr.ExportDir(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s and %s\n",
		filepath.Join(*out, "trace.json.gz"), filepath.Join(*out, "inventory.csv"))

	if *utilSample > 0 {
		path := filepath.Join(*out, "utilization.csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = tr.WriteUtilizationCSV(f, *utilSample)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d VMs)\n", path, *utilSample)
	}
	return nil
}
