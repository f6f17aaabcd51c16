// Package allocfail implements the workload-aware allocation-failure
// prediction the paper calls for in Section III-B: because private cloud
// deployments are large and bursty, whether a deployment will fit depends
// on how the region's load evolves between planning and arrival, and the
// paper argues a "better workload-aware allocation failure prediction
// method ... can be critical for improving the efficiency of capacity
// management for the private cloud workloads".
//
// The experiment: a deployment is planned for a region twelve hours ahead,
// sized inside the at-risk band (0.5x-1.5x of the region's planning-time
// free capacity — requests far from the boundary are trivial either way).
// The predictor sees only planning-time knowledge — the region's current
// allocation level and its recent trend, the request size, the region's
// deployment burstiness (the Figure 3d CV), and the local hour — and must
// predict whether the allocation will fail when it actually arrives. A
// logistic model trained on the first half of the week is evaluated on the
// second half against the static baseline that simply checks whether the
// request fits the currently free capacity (ignoring workload dynamics).
//
// Finding (a negative result worth having): the learned model recovers the
// static check (accuracy parity within a couple of points) but cannot beat
// it — the extra workload features carry almost no signal about what the
// region will look like twelve hours later, exactly because the paper
// characterizes private deployment dynamics as irregular bursts that
// planning-time features cannot anticipate. The experiment is therefore a
// quantitative restatement of Insight 2: under bursty deployments, capacity
// headroom — not clever prediction — is what protects against allocation
// failures.
package allocfail

import (
	"fmt"
	"math"

	"cloudlens/internal/core"
	"cloudlens/internal/sim"
	"cloudlens/internal/stats"
	"cloudlens/internal/trace"
)

// Options tunes the experiment.
type Options struct {
	// Cloud selects the platform (default Private, the paper's focus).
	Cloud core.Cloud
	// Seed drives probe sampling and SGD shuffling.
	Seed uint64
}

const (
	// leadSteps is the planning horizon: 144 five-minute steps, 12 hours,
	// the capacity-planning horizon.
	leadSteps = 144
	// probesPerRegionHour is how many planned deployments are sampled per
	// region and hour.
	probesPerRegionHour = 6
	// usableFraction discounts free capacity for fragmentation: a region
	// cannot be packed to the last core.
	usableFraction = 0.92
	// epochs is the SGD pass count.
	epochs = 400
	// learningRate is the initial SGD step.
	learningRate = 0.5
)

func (o Options) withDefaults() Options {
	if !o.Cloud.Valid() {
		o.Cloud = core.Private
	}
	return o
}

// Metrics is a binary-classification scorecard.
type Metrics struct {
	Accuracy  float64 `json:"accuracy"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// Result reports the comparison.
type Result struct {
	Cloud core.Cloud `json:"cloud"`
	// TrainSamples/TestSamples are the dataset sizes.
	TrainSamples int `json:"trainSamples"`
	TestSamples  int `json:"testSamples"`
	// FailureRate is the base rate of allocation failures in the test
	// half.
	FailureRate float64 `json:"failureRate"`
	// Model is the workload-aware logistic predictor.
	Model Metrics `json:"model"`
	// Baseline checks the request against planning-time free capacity,
	// ignoring workload dynamics.
	Baseline Metrics `json:"baseline"`
	// Weights are the trained logistic coefficients (bias first), for
	// interpretability.
	Weights []float64 `json:"weights"`
}

// sample is one planned deployment.
type sample struct {
	features []float64
	label    bool // true = allocation fails at arrival
	// baselinePred is the static capacity check at planning time.
	baselinePred bool
}

// Run executes the experiment.
func Run(t *trace.Trace, opts Options) (Result, error) {
	opts = opts.withDefaults()
	res := Result{Cloud: opts.Cloud}
	regions := t.Topology.RegionsOf(opts.Cloud)
	if len(regions) == 0 {
		return res, fmt.Errorf("allocfail: no %s regions", opts.Cloud)
	}

	// Per-region allocated-cores series and burstiness.
	allocated := make(map[string][]float64, len(regions))
	burstCV := make(map[string]float64, len(regions))
	physical := make(map[string]float64, len(regions))
	for _, r := range regions {
		allocated[r] = make([]float64, t.Grid.N)
		physical[r] = float64(t.Topology.PhysicalCores(r, opts.Cloud))
		burstCV[r] = stats.CV(t.HourlyCreations(opts.Cloud, r))
	}
	for i := range t.VMs {
		v := &t.VMs[i]
		if v.Cloud != opts.Cloud {
			continue
		}
		series, ok := allocated[v.Region]
		if !ok {
			continue
		}
		from, to, okRange := v.AliveRange(t.Grid.N)
		if !okRange {
			continue
		}
		for s := from; s < to; s++ {
			series[s] += float64(v.Size.Cores)
		}
	}

	// Probe deployments: planned at step s, arriving at s+lead.
	rng := sim.NewRNG(opts.Seed ^ 0x5ca1ab1e)
	stepsPerHour := t.Grid.StepsPerHour()
	var train, test []sample
	half := t.Grid.N / 2
	for _, r := range regions {
		phys := physical[r]
		if phys == 0 {
			continue
		}
		for h := 0; h*stepsPerHour+leadSteps < t.Grid.N; h++ {
			s := h * stepsPerHour
			arrive := s + leadSteps
			freeNow := phys - allocated[r][s]
			if freeNow < 1 {
				freeNow = 1
			}
			// Planning-time observable load momentum (last hour).
			trendFrom := s - stepsPerHour
			if trendFrom < 0 {
				trendFrom = 0
			}
			trend := (allocated[r][s] - allocated[r][trendFrom]) / phys
			for p := 0; p < probesPerRegionHour; p++ {
				// At-risk requests around the planning-time boundary;
				// anything far from it is trivially decided.
				reqCores := math.Round(freeNow * usableFraction * (0.5 + rng.Float64()))
				if reqCores < 8 {
					reqCores = 8
				}
				freeLater := phys - allocated[r][arrive]
				// The static check's signed margin is itself a
				// planning-time observable; the model learns
				// workload-aware corrections on top of it.
				margin := (reqCores - freeNow*usableFraction) / phys
				smp := sample{
					features: []float64{
						1, // bias
						margin * 20,
						reqCores / phys,
						allocated[r][s] / phys,
						trend * 10,
						burstCV[r] / 5,
						float64(t.Grid.MinuteOfDay(s, t.Topology.TZOffsetMin(r))) / 1440,
					},
					label:        reqCores > freeLater*usableFraction,
					baselinePred: reqCores > freeNow*usableFraction,
				}
				if s < half {
					train = append(train, smp)
				} else {
					test = append(test, smp)
				}
			}
		}
	}
	if len(train) == 0 || len(test) == 0 {
		return res, fmt.Errorf("allocfail: empty dataset")
	}
	res.TrainSamples = len(train)
	res.TestSamples = len(test)
	fails := 0
	for _, smp := range test {
		if smp.label {
			fails++
		}
	}
	res.FailureRate = float64(fails) / float64(len(test))

	weights := trainLogistic(train, rng)
	res.Weights = weights
	res.Model = score(test, func(smp sample) bool {
		return sigmoid(dot(weights, smp.features)) >= 0.5
	})
	res.Baseline = score(test, func(smp sample) bool { return smp.baselinePred })
	return res, nil
}

// trainLogistic fits a logistic regression with plain SGD; the dataset is
// small and the point is determinism, not speed.
func trainLogistic(train []sample, rng *sim.RNG) []float64 {
	dim := len(train[0].features)
	w := make([]float64, dim)
	idx := make([]int, len(train))
	for i := range idx {
		idx[i] = i
	}
	// Polyak-style averaging over the tail epochs stabilizes plain SGD;
	// a decaying step and light L2 keep the boundary from chasing noise.
	avg := make([]float64, dim)
	avgCount := 0
	const l2 = 1e-5
	for epoch := 0; epoch < epochs; epoch++ {
		lr := learningRate / (1 + 0.05*float64(epoch))
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			smp := train[i]
			pred := sigmoid(dot(w, smp.features))
			target := 0.0
			if smp.label {
				target = 1
			}
			g := pred - target
			for d := 0; d < dim; d++ {
				w[d] -= lr * (g*smp.features[d] + l2*w[d])
			}
		}
		if epoch >= epochs/2 {
			for d := 0; d < dim; d++ {
				avg[d] += w[d]
			}
			avgCount++
		}
	}
	for d := 0; d < dim; d++ {
		avg[d] /= float64(avgCount)
	}
	return avg
}

func dot(w, x []float64) float64 {
	s := 0.0
	for i := range w {
		s += w[i] * x[i]
	}
	return s
}

func sigmoid(z float64) float64 {
	return 1 / (1 + math.Exp(-z))
}

// score computes the classification metrics of a predictor over samples.
func score(samples []sample, predict func(sample) bool) Metrics {
	var tp, fp, tn, fn float64
	for _, smp := range samples {
		pred := predict(smp)
		switch {
		case pred && smp.label:
			tp++
		case pred && !smp.label:
			fp++
		case !pred && smp.label:
			fn++
		default:
			tn++
		}
	}
	var m Metrics
	total := tp + fp + tn + fn
	if total > 0 {
		m.Accuracy = (tp + tn) / total
	}
	if tp+fp > 0 {
		m.Precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		m.Recall = tp / (tp + fn)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}
