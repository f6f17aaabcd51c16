package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"cloudlens"
	"cloudlens/internal/classify"
	"cloudlens/internal/kb"
	"cloudlens/internal/periodic"
	"cloudlens/internal/policy"
	"cloudlens/internal/sketch"
)

// The probes time one layer's public function alone on a canned input.
// Each result is kept in a package variable so the call cannot be
// optimised away.
var probeSink interface{}

// dayPlusSeries materialises the utilization series of the first n VMs
// that live at least a day inside the window.
func dayPlusSeries(tr *cloudlens.Trace, n int) [][]float64 {
	var out [][]float64
	day := tr.Grid.StepsPerDay()
	for i := range tr.VMs {
		v := &tr.VMs[i]
		from, to, ok := v.AliveRange(tr.Grid.N)
		if !ok || to-from < day {
			continue
		}
		out = append(out, v.Usage.Series(tr.Grid, from, to))
		if len(out) == n {
			break
		}
	}
	return out
}

// perItem is the wall time of fn over n items, in nanoseconds an item.
func perItem(n int, fn func()) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func probeClassify(series [][]float64, stepsPerHour int) float64 {
	opts := classify.Options{StepsPerHour: stepsPerHour}
	return perItem(len(series), func() {
		for _, s := range series {
			probeSink = classify.Classify(s, opts)
		}
	})
}

func probeClassifyInvocation(series [][]float64, stepsPerHour int) float64 {
	opts := classify.InvocationOptions{StepsPerHour: stepsPerHour}
	return perItem(len(series), func() {
		for _, s := range series {
			probeSink = classify.ClassifyInvocation(s, opts)
		}
	})
}

func probeDetect(series [][]float64) float64 {
	return perItem(len(series), func() {
		for _, s := range series {
			probeSink = periodic.Detect(s, periodic.Options{})
		}
	})
}

// probeSketches times the three sketches the ingestor updates per sample
// over one canned column of n utilization values.
func (r *run) probeSketches(n int) {
	rng := rand.New(rand.NewSource(int64(r.seed)))
	col32 := make([]float32, n)
	col64 := make([]float64, n)
	for i := range col32 {
		col32[i] = rng.Float32()
		col64[i] = float64(col32[i])
	}
	// The lags the ingestor tracks per VM on a five-minute grid: the
	// hour, half hour and day, each with the two hill-test lags around it.
	ac := sketch.NewAutoCorr(12, 6, 18, 3, 9, 288, 144, 432)
	r.layer("sketch.autocorr_add_ns", perItem(n, func() {
		for _, x := range col64 {
			ac.Add(x)
		}
	}))
	h := sketch.NewHistogram(0, 1, 400) // the ingestor's per-subscription resolution
	r.layer("sketch.histogram_observeall_ns_per_sample", perItem(n, func() { h.ObserveAll(col32) }))
	var w sketch.Welford
	r.layer("sketch.welford_add_ns", perItem(n, func() {
		for _, x := range col64 {
			w.Add(x)
		}
	}))
	probeSink = []interface{}{ac.N(), h.Count(), w.Count()}
}

// probeReadSide times, on a finished knowledge base, the pieces a live
// read or decision is made of: snapshot construction, one page of 25
// profiles listed, paginated and encoded, the gzip of the summary
// payload a snapshot memoizes, and one in-process policy decision.
func (r *run) probeReadSide(store *cloudlens.KnowledgeBase, step int, summaryJSON []byte) error {
	const reps = 20
	var sn *kb.Snapshot
	r.layer("kb.newsnapshot_ms", perItem(reps, func() {
		for i := 0; i < reps; i++ {
			sn = kb.NewSnapshot(store, step, 0)
		}
	})/1e6)

	var encErr error
	r.layer("kb.page_encode_us", perItem(reps*10, func() {
		for i := 0; i < reps*10; i++ {
			page, err := kb.Paginate(sn.List(kb.MatchAll()), func(p *kb.Profile) string { return string(p.Subscription) }, kb.Page{Limit: 25})
			if err != nil {
				encErr = err
				return
			}
			if probeSink, err = json.Marshal(page); err != nil {
				encErr = err
				return
			}
		}
	})/1e3)
	if encErr != nil {
		return fmt.Errorf("page encode probe: %w", encErr)
	}

	r.layer("kb.gzip_memo_ms", perItem(reps, func() {
		for i := 0; i < reps; i++ {
			// A fresh key each time, so every call pays the compression
			// the memo otherwise saves.
			probeSink = sn.Memo(fmt.Sprintf("probe.gzip.%d", i), func() interface{} {
				var b bytes.Buffer
				zw := gzip.NewWriter(&b)
				_, _ = zw.Write(summaryJSON) // bytes.Buffer writes cannot fail
				_ = zw.Close()
				return b.Bytes()
			})
		}
	})/1e6)

	pols, err := policy.ParseSpec(servePolicies)
	if err != nil {
		return err
	}
	eng, err := policy.NewEngine(policy.NewStoreSource(store, step), pols, policy.Options{TraceLevel: 1, CounterfactualK: 3})
	if err != nil {
		return err
	}
	profiles := sn.Profiles()
	if len(profiles) == 0 {
		return fmt.Errorf("policy probe: knowledge base is empty")
	}
	const decisions = 3000
	var decErr error
	r.layer("policy.decide_us", perItem(decisions, func() {
		for i := 0; i < decisions; i++ {
			p := profiles[i%len(profiles)]
			if _, err := eng.Decide(decideRequest(i, string(p.Subscription), p.Regions)); err != nil {
				decErr = err
				return
			}
		}
	})/1e3)
	return decErr
}

// servePolicies is the policy set serve-live enables on the server and
// the decide probe evaluates in process.
const servePolicies = "oversub,spot,balance"

// decideRequest is the i-th policy request of a decide stream: policies
// in rotation, two cores, the subscription's own regions as candidates.
func decideRequest(i int, subscription string, regions []string) policy.Request {
	names := [...]string{"oversub", "spot", "balance"}
	req := policy.Request{Policy: names[i%len(names)], Subscription: cloudlens.SubscriptionID(subscription), Cores: 2}
	if req.Policy == "balance" {
		req.Regions = regions
	}
	return req
}
