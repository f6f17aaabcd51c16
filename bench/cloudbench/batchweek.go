package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"cloudlens"
	"cloudlens/internal/analyze"
	"cloudlens/internal/kb"
	"cloudlens/internal/obs"
	"cloudlens/internal/trace"
)

// runBatchWeek is the paper's own pipeline: trace in, sixteen figures, the
// text report and the knowledge base out.
func runBatchWeek(r *run) error {
	cfg := cloudlens.DefaultConfig(r.seed)
	cfg.Scale = r.size.batchScale
	var tr *cloudlens.Trace
	err := r.setup(func() (err error) {
		gen := r.rec.timed("workload.generate", -1, func() { tr, err = cloudlens.Generate(cfg) })
		r.layer("workload.generate_s", gen.Seconds())
		return err
	}, nil)
	if err != nil {
		return err
	}
	// The trace's size in samples: what a seed changes about the work.
	var vmSamples float64
	for i := range tr.VMs {
		if from, to, ok := tr.VMs[i].AliveRange(tr.Grid.N); ok {
			vmSamples += float64(to - from)
		}
	}

	var batchS []float64
	var first [2]string
	oneBatch := func(i int) error {
		start := time.Now()
		ch := cloudlens.Characterize(tr)
		if err := ch.WriteReport(io.Discard); err != nil {
			return err
		}
		store := cloudlens.ExtractKnowledgeBase(tr)
		batchS = append(batchS, time.Since(start).Seconds())

		got, err := batchHashes(ch, store, tr.Grid.N)
		if err != nil {
			return err
		}
		if i == 0 {
			first = got
			r.hashes["characterization_sha256"], r.hashes["kb_fingerprint"] = got[0], got[1]
		}
		r.check("batch-outputs-equal", got == first, "iteration %d produced %v, iteration 0 %v", i, got, first)
		return nil
	}

	if !r.traced {
		if err := r.iterate("batch", oneBatch); err != nil {
			return err
		}
		perS := make([]float64, len(batchS))
		ms := make([]float64, len(batchS))
		for i, s := range batchS {
			perS[i] = vmSamples / s
			ms[i] = s * 1000
		}
		r.name("batch_s", math.NaN(), batchS, iterations)
		r.slot("work_per_s", math.NaN(), perS, iterations)
		r.slot("op_p50_ms", math.NaN(), ms, iterations)
		r.slot("op_tail_ms", math.NaN(), ms, iterations)
		return nil
	}

	// Traced: one pass without spans for the overhead, one with spans
	// around the three public calls, then every figure alone.
	if err := oneBatch(0); err != nil {
		return err
	}
	before, err := scrapeRegistry()
	if err != nil {
		return err
	}
	root := r.rec.begin("batch", -1)
	var ch *cloudlens.Characterization
	r.layer("analyze.characterize_s", r.rec.timed("analyze.characterize", root, func() { ch = cloudlens.Characterize(tr) }).Seconds())
	after, err := scrapeRegistry()
	if err != nil {
		return err
	}
	r.layer("analyze.report_s", r.rec.timed("analyze.report", root, func() { err = ch.WriteReport(io.Discard) }).Seconds())
	if err != nil {
		return err
	}
	var store *cloudlens.KnowledgeBase
	r.layer("kb.extract_s", r.rec.timed("kb.extract", root, func() { store = cloudlens.ExtractKnowledgeBase(tr) }).Seconds())
	traced := r.rec.end(root).Seconds()
	r.layer("trace_overhead_pct", 100*(traced-batchS[0])/batchS[0])
	got, err := batchHashes(ch, store, tr.Grid.N)
	if err != nil {
		return err
	}
	r.check("batch-outputs-equal", got == first, "traced pass produced %v, untraced %v", got, first)
	for layer, counter := range map[string]string{
		"trace.seriescache_hits":   "cloudlens_seriescache_hits_total",
		"trace.seriescache_misses": "cloudlens_seriescache_misses_total",
		"parallel.dispatches":      "cloudlens_pool_dispatches_total",
		"parallel.tasks":           "cloudlens_pool_tasks_total",
	} {
		r.layer(layer, after.sum(counter)-before.sum(counter))
	}

	region := analyze.SampleRegion(tr)
	figs := r.rec.begin("analyze.figures-alone", -1)
	for _, f := range []struct {
		name string
		fn   func(c *trace.SeriesCache)
	}{
		{"fig1a", func(*trace.SeriesCache) { analyze.ComputeFig1a(tr) }},
		{"fig1b", func(*trace.SeriesCache) { analyze.ComputeFig1b(tr) }},
		{"fig2", func(*trace.SeriesCache) { analyze.ComputeFig2(tr) }},
		{"fig3a", func(*trace.SeriesCache) { analyze.ComputeFig3a(tr) }},
		{"fig3b", func(*trace.SeriesCache) { analyze.ComputeFig3b(tr, region) }},
		{"fig3c", func(*trace.SeriesCache) { analyze.ComputeFig3c(tr, region) }},
		{"fig3d", func(*trace.SeriesCache) { analyze.ComputeFig3d(tr) }},
		{"fig4a", func(*trace.SeriesCache) { analyze.ComputeFig4a(tr) }},
		{"fig4b", func(*trace.SeriesCache) { analyze.ComputeFig4b(tr) }},
		{"fig5samples", func(c *trace.SeriesCache) { analyze.ComputeFig5SamplesWith(tr, c) }},
		{"fig5d", func(c *trace.SeriesCache) { analyze.ComputeFig5dWith(tr, c) }},
		{"fig6weekly", func(c *trace.SeriesCache) { analyze.ComputeFig6WeeklyWith(tr, c) }},
		{"fig6daily", func(c *trace.SeriesCache) { analyze.ComputeFig6DailyWith(tr, c) }},
		{"fig7a", func(c *trace.SeriesCache) { analyze.ComputeFig7aWith(tr, c) }},
		{"fig7b", func(c *trace.SeriesCache) { analyze.ComputeFig7bWith(tr, c) }},
		{"fig7c", func(c *trace.SeriesCache) { analyze.ComputeFig7cWith(tr, c, "") }},
	} {
		cache := trace.NewSeriesCache(tr) // fresh, so each figure pays for its own series
		d := r.rec.timed("analyze."+f.name, figs, func() { f.fn(cache) })
		r.layer("analyze."+f.name+"_s", d.Seconds())
	}
	r.rec.end(figs)

	series := dayPlusSeries(tr, r.size.probeSeries)
	r.layer("classify.classify_ns_per_series", probeClassify(series, tr.Grid.StepsPerHour()))
	r.layer("periodic.detect_ns_per_series", probeDetect(series))
	return r.writeSpanFile()
}

// batchHashes identifies a batch pass's outputs: the SHA-256 of the
// characterization's JSON and the knowledge base's content fingerprint.
func batchHashes(ch *cloudlens.Characterization, store *cloudlens.KnowledgeBase, step int) ([2]string, error) {
	data, err := json.Marshal(ch)
	if err != nil {
		return [2]string{}, fmt.Errorf("encode characterization: %w", err)
	}
	sum := sha256.Sum256(data)
	return [2]string{hex.EncodeToString(sum[:]), kb.NewSnapshot(store, step, 0).Fingerprint()}, nil
}

// scrapeRegistry reads this process's metric registry through its
// Prometheus rendering, the same way the serve-live workload reads the
// server's.
func scrapeRegistry() (promScrape, error) {
	var b bytes.Buffer
	if err := obs.Default.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseProm(&b)
}

// writeSpanFile writes the recorded spans beside the other build output.
func (r *run) writeSpanFile() error {
	r.spanFile = r.path("spans.json")
	return writeSpans(r.spanFile, r.rec.snapshot())
}
