package kb

import (
	"slices"

	"cloudlens/internal/core"
	"cloudlens/internal/stats"
)

// The rules that turn a subscription's classified VMs into the behavioural
// half of its profile live here, once: batch extraction (Extract) and the
// streaming fold only gather the sums below, Tally.Fill and
// RegionAgnosticScore finish the profile, and Merge picks its dominant
// pattern with the same tie rule. The gatherers add in their own order
// (batch per sample, the fold per VM record); the rules here only read the
// totals.

// Tally gathers what a subscription's classified VMs (at most
// MaxClassifyPerSub of them, in VM order) contribute to its profile.
type Tally struct {
	// Counts holds classified VMs by core.Pattern (PatternUnknown is
	// index 0); Count grows it as needed.
	Counts []int
	// N is the number of classified VMs: the sum of Counts.
	N int
	// UtilSum and UtilN are the sum and count of those VMs' samples.
	UtilSum float64
	UtilN   int
	// Hourly and HourlyN are the sum and count of the samples by UTC hour
	// of day.
	Hourly, HourlyN [24]float64
}

// Count records one classified VM of pattern p.
func (t *Tally) Count(p core.Pattern) {
	if int(p) >= len(t.Counts) {
		t.Counts = append(t.Counts, make([]int, int(p)+1-len(t.Counts))...)
	}
	t.Counts[p]++
	t.N++
}

// Fill sets p's PatternShares (each counted pattern's share of N),
// DominantPattern, MeanUtilization and PeakHourUTC (-1 without samples)
// from the tally. p.Family must be set: it orders the dominant pattern's
// ties.
func (t *Tally) Fill(p *Profile) {
	distinct := 0
	for _, c := range t.Counts {
		if c > 0 {
			distinct++
		}
	}
	p.PatternShares = make(map[core.Pattern]float64, distinct)
	for pat, c := range t.Counts {
		if c > 0 {
			p.PatternShares[core.Pattern(pat)] = float64(c) / float64(t.N)
		}
	}
	p.DominantPattern = dominantPattern(p.Family, p.PatternShares)
	p.MeanUtilization, p.PeakHourUTC = 0, -1
	if t.UtilN > 0 {
		p.MeanUtilization = t.UtilSum / float64(t.UtilN)
		peak := 0
		for h := 1; h < 24; h++ {
			if t.hourMean(h) > t.hourMean(peak) {
				peak = h
			}
		}
		p.PeakHourUTC = peak
	}
}

func (t *Tally) hourMean(h int) float64 {
	if t.HourlyN[h] == 0 {
		return 0
	}
	return t.Hourly[h] / t.HourlyN[h]
}

// dominantPattern is the largest share among the family's patterns; ties go
// to the pattern that comes first in f.Patterns(), so the pick never
// depends on map order. PatternUnknown when no family pattern has a share.
func dominantPattern(f core.Family, shares map[core.Pattern]float64) core.Pattern {
	best := core.PatternUnknown
	for _, k := range f.Patterns() {
		if share, ok := shares[k]; ok && (best == core.PatternUnknown || share > shares[best]) {
			best = k
		}
	}
	return best
}

// RegionHours accumulates one region's top-of-hour samples of a
// subscription over the window, by hour index: the Figure 7b signal.
type RegionHours struct {
	Sum, N []float64
}

// Add folds sample x into hour, sizing the accumulator to the window's
// hours on first use.
func (r *RegionHours) Add(hour, hours int, x float64) {
	if r.Sum == nil {
		r.Sum = make([]float64, hours)
		r.N = make([]float64, hours)
	}
	r.Sum[hour] += x
	r.N[hour]++
}

// RegionAgnosticScore is the mean pairwise Pearson correlation of the
// regions' hourly means (an hour without samples reads 0), summed over the
// pairs of rows in order; rows must be in region-name order. It is -1 for
// fewer than two rows. The hourly means are laid out in scratch, which is
// returned (grown if needed) for reuse, so a caller that keeps it
// allocates nothing once it has grown.
func RegionAgnosticScore(rows []*RegionHours, scratch []float64) (float64, []float64) {
	if len(rows) < 2 {
		return -1, scratch
	}
	hours := len(rows[0].Sum)
	avgs := slices.Grow(scratch[:0], len(rows)*hours)[:len(rows)*hours]
	row := func(i int) []float64 { return avgs[i*hours : (i+1)*hours] }
	for i, r := range rows {
		avg := row(i)
		for h := range avg {
			avg[h] = 0
			if r.N[h] > 0 {
				avg[h] = r.Sum[h] / r.N[h]
			}
		}
	}
	var sum float64
	var n int
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			sum += stats.Pearson(row(i), row(j))
			n++
		}
	}
	return sum / float64(n), avgs
}
