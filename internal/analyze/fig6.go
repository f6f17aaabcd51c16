package analyze

import (
	"cloudlens/internal/core"
	"cloudlens/internal/parallel"
	"cloudlens/internal/stats"
	"cloudlens/internal/trace"
)

// Band is a set of utilization percentiles over a sequence of time buckets.
type Band struct {
	P25 []float64 `json:"p25"`
	P50 []float64 `json:"p50"`
	P75 []float64 `json:"p75"`
	P95 []float64 `json:"p95"`
}

// newBand allocates a band with n buckets per percentile curve.
func newBand(n int) Band {
	return Band{
		P25: make([]float64, n),
		P50: make([]float64, n),
		P75: make([]float64, n),
		P95: make([]float64, n),
	}
}

// Fig6Weekly reproduces Figures 6(a)/(b): the distribution of CPU
// utilization across VMs at each hour of the week. The paper observes the
// 75th percentile staying below ~30% on both platforms, a weekend dip in
// the private cloud, and a flatter public cloud.
type Fig6Weekly struct {
	// Hours is the number of hourly buckets.
	Hours int `json:"hours"`
	// Bands holds the per-platform percentile curves, one value per hour.
	Bands PerCloud[Band] `json:"bands"`
	// MaxP75 is the maximum of the p75 curve (the "<30%" check).
	MaxP75 PerCloud[float64] `json:"maxP75"`
	// WeekendDip is 1 - (weekend median of p50 / weekday median of p50):
	// how much the platform's typical utilization falls on weekends.
	WeekendDip PerCloud[float64] `json:"weekendDip"`
}

// hourSampleOffsets picks two probe steps per hour away from the hour and
// half-hour marks (minutes 15 and 45), so the hourly-peak pattern's
// meeting-join spikes do not dominate what is meant to be a typical-load
// distribution.
func hourSampleOffsets(stepsPerHour int) [2]int {
	return [2]int{stepsPerHour / 4, 3 * stepsPerHour / 4}
}

// ComputeFig6Weekly evaluates every alive VM's mid-hour utilization for
// each hour of the week and aggregates percentiles across VMs.
func ComputeFig6Weekly(t *trace.Trace) Fig6Weekly {
	return computeFacts(t, needProbes).Fig6Weekly()
}

// ComputeFig6WeeklyWith is ComputeFig6Weekly; c is ignored. Bench only;
// ROADMAP 17(f) deletes.
func ComputeFig6WeeklyWith(t *trace.Trace, c *trace.SeriesCache) Fig6Weekly {
	return ComputeFig6Weekly(t)
}

// Fig6Weekly aggregates the hourly probe means into per-hour percentiles.
// Hourly buckets are independent of each other, so the hours fan out over
// the worker pool; each worker reuses one sample buffer across its
// contiguous chunk of hours.
func (f *SeriesFacts) Fig6Weekly() Fig6Weekly {
	t := f.t
	hours := t.Grid.Hours()
	out := Fig6Weekly{Hours: hours}
	stepsPerHour := t.Grid.StepsPerHour()
	for _, cloud := range core.Clouds() {
		runs := f.hourRuns(cloud)
		band := newBand(hours)
		parallel.ForEachChunk(hours, func(lo, hi int) {
			sample := make([]float64, 0, len(runs))
			for h := lo; h < hi; h++ {
				sample = f.appendHour(sample[:0], runs, h)
				qs := stats.QuantilesInPlace(sample, 0.25, 0.5, 0.75, 0.95)
				band.P25[h], band.P50[h], band.P75[h], band.P95[h] = qs[0], qs[1], qs[2], qs[3]
			}
		})
		var weekdayP50, weekendP50 []float64
		for h := 0; h < hours; h++ {
			if t.Grid.IsWeekend(h*stepsPerHour, 0) {
				weekendP50 = append(weekendP50, band.P50[h])
			} else {
				weekdayP50 = append(weekdayP50, band.P50[h])
			}
		}
		out.Bands.Set(cloud, band)
		out.MaxP75.Set(cloud, stats.Max(band.P75))
		wd := stats.Quantile(weekdayP50, 0.5)
		we := stats.Quantile(weekendP50, 0.5)
		if wd > 0 {
			out.WeekendDip.Set(cloud, 1-we/wd)
		}
	}
	return out
}

// Fig6Daily reproduces Figures 6(c)/(d): the utilization distribution by
// hour of day. Private cloud utilization follows working hours; public
// cloud utilization is nearly constant across the day.
type Fig6Daily struct {
	// Bands holds 24 values per percentile curve.
	Bands PerCloud[Band] `json:"bands"`
	// DailySwing is (max-min)/max of the p50 curve: how strongly typical
	// utilization varies within a day.
	DailySwing PerCloud[float64] `json:"dailySwing"`
}

// ComputeFig6Daily aggregates, for each hour of day (UTC), every alive VM's
// utilization over all weekdays.
func ComputeFig6Daily(t *trace.Trace) Fig6Daily {
	return computeFacts(t, needProbes).Fig6Daily()
}

// ComputeFig6DailyWith is ComputeFig6Daily; c is ignored. Bench only;
// ROADMAP 17(f) deletes.
func ComputeFig6DailyWith(t *trace.Trace, c *trace.SeriesCache) Fig6Daily {
	return ComputeFig6Daily(t)
}

// Fig6Daily aggregates the hourly probe means by hour of day. The 24
// buckets fan out over the worker pool in contiguous chunks: each bucket
// gathers its weekday samples in ascending hour order into the chunk's
// reused buffer and reduces them on its own.
func (f *SeriesFacts) Fig6Daily() Fig6Daily {
	t := f.t
	var out Fig6Daily
	stepsPerHour := t.Grid.StepsPerHour()
	hours := t.Grid.Hours()
	for _, cloud := range core.Clouds() {
		runs := f.hourRuns(cloud)
		band := newBand(24)
		parallel.ForEachChunk(24, func(lo, hi int) {
			var sample []float64
			for hod := lo; hod < hi; hod++ {
				sample = sample[:0]
				for h := hod; h < hours; h += 24 {
					if !t.Grid.IsWeekend(h*stepsPerHour, 0) {
						sample = f.appendHour(sample, runs, h)
					}
				}
				qs := stats.QuantilesInPlace(sample, 0.25, 0.5, 0.75, 0.95)
				band.P25[hod], band.P50[hod], band.P75[hod], band.P95[hod] = qs[0], qs[1], qs[2], qs[3]
			}
		})
		out.Bands.Set(cloud, band)
		maxP50, minP50 := stats.Max(band.P50), stats.Min(band.P50)
		if maxP50 > 0 {
			out.DailySwing.Set(cloud, (maxP50-minP50)/maxP50)
		}
	}
	return out
}
