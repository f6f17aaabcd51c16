// Command cloudreport runs the paper's complete characterization pipeline
// over a trace (generated in-process or loaded from a cloudgen bundle) and
// prints the figure-by-figure reproduction report, with the paper's
// reference values alongside the measured ones.
//
// Usage:
//
//	cloudreport [-seed 42] [-scale 1.0]            # generate, then report
//	cloudreport -trace bundle/trace.json.gz        # report a saved trace
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"cloudlens"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "cloudreport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cloudreport", flag.ContinueOnError)
	var (
		seed      = fs.Uint64("seed", 42, "generation seed (ignored with -trace)")
		scale     = fs.Float64("scale", 1.0, "universe scale (ignored with -trace)")
		tracePath = fs.String("trace", "", "load a saved trace instead of generating")
		csvDir    = fs.String("csv", "", "also export every figure's data as CSV into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		tr  *trace.Trace
		err error
	)
	if *tracePath != "" {
		tr, err = trace.LoadFile(*tracePath)
	} else {
		cfg := workload.DefaultConfig(*seed)
		cfg.Scale = *scale
		tr, err = workload.Generate(cfg)
	}
	if err != nil {
		return err
	}

	// What was written before a failure still prints.
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "cloudlens characterization report — %d VMs, seed %d\n",
		len(tr.VMs), tr.Meta.Seed)
	ch := cloudlens.Characterize(tr)
	err = ch.WriteReport(w)
	if err == nil && *csvDir != "" {
		if err = ch.ExportCSV(*csvDir); err == nil {
			fmt.Fprintf(w, "\nfigure data exported to %s\n", *csvDir)
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	return err
}
