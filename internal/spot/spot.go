// Package spot simulates the spot-VM adoption the paper recommends for the
// public cloud (Section III-B implication): during the valleys of the
// diurnal deployment pattern, platform capacity sits idle; spot VMs harvest
// it and are evicted when on-demand demand returns. The paper points to
// eviction-rate prediction as the enabling technology; this package
// includes the empirical predictor (per-hour-of-day eviction rates learned
// on the first half of the week, evaluated on the second).
package spot

import (
	"fmt"
	"math"

	"cloudlens/internal/core"
	"cloudlens/internal/stats"
	"cloudlens/internal/trace"
)

// Options tunes the harvesting simulation.
type Options struct {
	// Region restricts harvesting to one region ("" = all regions of the
	// platform).
	Region string
	// Cloud selects the platform (default Public, the paper's target).
	Cloud core.Cloud
	// SpotCores is the size of one spot VM (default 4).
	SpotCores int
}

// headroomFraction is the share of free capacity spot VMs may fill; the
// platform keeps a safety buffer for on-demand arrivals.
const headroomFraction = 0.6

func (o Options) withDefaults() Options {
	if !o.Cloud.Valid() {
		o.Cloud = core.Public
	}
	if o.SpotCores == 0 {
		o.SpotCores = 4
	}
	return o
}

// Result summarizes a harvesting run.
type Result struct {
	Cloud  core.Cloud `json:"cloud"`
	Region string     `json:"region"`
	// PhysicalCores is the harvested capacity pool.
	PhysicalCores int `json:"physicalCores"`
	// OnDemandUtilization is allocated on-demand cores / physical,
	// averaged over the week.
	OnDemandUtilization float64 `json:"onDemandUtilization"`
	// WithSpotUtilization includes the harvested spot cores.
	WithSpotUtilization float64 `json:"withSpotUtilization"`
	// SpotCoreHours is the total harvested core-hours.
	SpotCoreHours float64 `json:"spotCoreHours"`
	// Evictions is the number of spot VM evictions.
	Evictions int `json:"evictions"`
	// SpotVMsServed is the number of spot VMs that ran.
	SpotVMsServed int `json:"spotVMsServed"`
	// MeanSpotLifetimeHours is the average spot VM run length.
	MeanSpotLifetimeHours float64 `json:"meanSpotLifetimeHours"`
	// EvictionsPerHourOfDay is the realized eviction count by UTC hour.
	EvictionsPerHourOfDay []float64 `json:"evictionsPerHourOfDay"`
	// Predictor is the eviction-rate predictor evaluation.
	Predictor PredictorEval `json:"predictor"`
}

// PredictorEval reports how well the first-half-trained per-hour eviction
// model predicts second-half evictions.
type PredictorEval struct {
	// PredictedRate and ActualRate are per hour-of-day eviction
	// probabilities (evictions per occupied spot slot step).
	PredictedRate []float64 `json:"predictedRate"`
	ActualRate    []float64 `json:"actualRate"`
	// Correlation is the Pearson correlation between them.
	Correlation float64 `json:"correlation"`
	// MAE is the mean absolute error.
	MAE float64 `json:"mae"`
}

// Run executes the harvesting simulation.
func Run(t *trace.Trace, opts Options) (Result, error) {
	opts = opts.withDefaults()
	res := Result{Cloud: opts.Cloud, Region: opts.Region}

	// Physical pool.
	for _, c := range t.Topology.Clusters {
		if c.Cloud != opts.Cloud {
			continue
		}
		if opts.Region != "" && c.Region != opts.Region {
			continue
		}
		res.PhysicalCores += c.TotalCores()
	}
	if res.PhysicalCores == 0 {
		return res, fmt.Errorf("spot: no %s capacity in region %q", opts.Cloud, opts.Region)
	}

	// On-demand allocated cores per step.
	allocated := make([]float64, t.Grid.N)
	for i := range t.VMs {
		v := &t.VMs[i]
		if v.Cloud != opts.Cloud {
			continue
		}
		if opts.Region != "" && v.Region != opts.Region {
			continue
		}
		from, to, ok := v.AliveRange(t.Grid.N)
		if !ok {
			continue
		}
		for s := from; s < to; s++ {
			allocated[s] += float64(v.Size.Cores)
		}
	}
	res.OnDemandUtilization = stats.Mean(allocated) / float64(res.PhysicalCores)

	// Harvest loop: keep spot slots filled up to headroomFraction of free
	// capacity; evict newest-first when the budget shrinks.
	type slot struct{ started int }
	var running []slot
	var lifetimes []float64
	res.EvictionsPerHourOfDay = make([]float64, 24)
	evictionsBySlotStep := make([]float64, 24) // evictions
	occupiedBySlotStep := make([]float64, 24)  // occupied slot-steps
	evictionsFirstHalf := make([]float64, 24)
	occupiedFirstHalf := make([]float64, 24)
	spotCoreSteps := 0.0
	half := t.Grid.N / 2
	stepMin := t.Grid.Step.Minutes()

	for s := 0; s < t.Grid.N; s++ {
		headroom := float64(res.PhysicalCores) - allocated[s]
		if headroom < 0 {
			headroom = 0
		}
		budget := int(headroom * headroomFraction / float64(opts.SpotCores))
		hod := t.Grid.HourOf(s) % 24
		// Evict newest-first down to the budget.
		for len(running) > budget {
			victim := running[len(running)-1]
			running = running[:len(running)-1]
			res.Evictions++
			res.EvictionsPerHourOfDay[hod]++
			lifetimes = append(lifetimes, float64(s-victim.started)*stepMin/60)
			evictionsBySlotStep[hod]++
			if s < half {
				evictionsFirstHalf[hod]++
			}
		}
		// Fill up to the budget.
		for len(running) < budget {
			running = append(running, slot{started: s})
			res.SpotVMsServed++
		}
		spotCoreSteps += float64(len(running) * opts.SpotCores)
		occupiedBySlotStep[hod] += float64(len(running))
		if s < half {
			occupiedFirstHalf[hod] += float64(len(running))
		}
	}
	for _, sl := range running {
		lifetimes = append(lifetimes, float64(t.Grid.N-sl.started)*stepMin/60)
	}

	res.SpotCoreHours = spotCoreSteps * stepMin / 60
	res.WithSpotUtilization = res.OnDemandUtilization +
		spotCoreSteps/float64(t.Grid.N)/float64(res.PhysicalCores)
	res.MeanSpotLifetimeHours = stats.Mean(lifetimes)

	// Predictor: rates trained on the first half, evaluated on the second.
	pred := PredictorEval{
		PredictedRate: make([]float64, 24),
		ActualRate:    make([]float64, 24),
	}
	for h := 0; h < 24; h++ {
		if occupiedFirstHalf[h] > 0 {
			pred.PredictedRate[h] = evictionsFirstHalf[h] / occupiedFirstHalf[h]
		}
		occSecond := occupiedBySlotStep[h] - occupiedFirstHalf[h]
		if occSecond > 0 {
			pred.ActualRate[h] = (evictionsBySlotStep[h] - evictionsFirstHalf[h]) / occSecond
		}
	}
	pred.Correlation = stats.Pearson(pred.PredictedRate, pred.ActualRate)
	var mae float64
	for h := 0; h < 24; h++ {
		mae += math.Abs(pred.PredictedRate[h] - pred.ActualRate[h])
	}
	pred.MAE = mae / 24
	res.Predictor = pred
	return res, nil
}
