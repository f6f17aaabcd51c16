package main

import (
	"fmt"
	"io"
)

// verdict is the comparison of one end-to-end metric on one workload
// between a base result and a candidate.
type verdict struct {
	Workload string
	Metric   string
	Base     float64
	Cand     float64
	// Worse is the candidate's change in the metric's bad direction as a
	// share of the base: +0.08 is 8 % worse, -0.05 is 5 % better.
	Worse    float64
	Bound    float64
	Breached bool
}

// worsening is how much worse cand is than base, as a share of base, for
// a metric whose good direction is better ("lower" or "higher").
func worsening(better string, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// compareResults holds every bounded end-to-end metric of base against
// the same workload and metric in cand. A workload or metric that cand
// lacks is a breach: a result that stops reporting a number has not kept
// it.
func compareResults(base, cand []result) []verdict {
	byWorkload := map[string]result{}
	for _, r := range cand {
		byWorkload[r.Workload] = r
	}
	var out []verdict
	for _, b := range base {
		c, have := byWorkload[b.Workload]
		candRows := map[string]row{}
		for _, r := range append(append([]row(nil), c.EndToEnd...), c.Named...) {
			candRows[r.Name] = r
		}
		for _, br := range append(append([]row(nil), b.EndToEnd...), b.Named...) {
			if br.Bound <= 0 {
				continue
			}
			v := verdict{Workload: b.Workload, Metric: br.Name, Base: br.Value, Bound: br.Bound}
			cr, ok := candRows[br.Name]
			if !have || !ok {
				v.Breached = true
			} else {
				v.Cand = cr.Value
				v.Worse = worsening(br.Better, br.Value, cr.Value)
				v.Breached = v.Worse > br.Bound
			}
			out = append(out, v)
		}
	}
	return out
}

// compareFiles prints each end-to-end metric's change against its bound
// and reports whether any bound was breached or any run was incorrect.
func compareFiles(w io.Writer, basePath, candPath string) (breached bool, err error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-22s %14s %14s %9s %7s\n", "workload", "metric", "base", "candidate", "worse by", "bound")
	for _, v := range compareResults(base, cand) {
		mark := ""
		if v.Breached {
			mark = "  BREACH"
			breached = true
		}
		fmt.Fprintf(w, "%-13s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
			v.Workload, v.Metric, v.Base, v.Cand, 100*v.Worse, 100*v.Bound, mark)
	}
	for _, r := range cand {
		if !r.Correct {
			fmt.Fprintf(w, "%-13s candidate run failed %d of %d operations\n", r.Workload, r.Failed, r.Attempted)
			breached = true
		}
	}
	return breached, nil
}
