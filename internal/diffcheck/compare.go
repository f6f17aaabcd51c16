package diffcheck

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/stats"
	"cloudlens/internal/stream"
	"cloudlens/internal/trace"
)

// Comparison tolerances. Structural fields (rosters, counts, lifetimes)
// are compared exactly; only the statistical fields carry bands, tighter
// when the fault mix is lossless. The agreement thresholds mirror the
// golden batch-equivalence test.
const (
	// minPatternAgreement is the minimum fraction of batch-classified
	// subscriptions whose live dominant pattern matches.
	minPatternAgreement = 0.95
	// minPeakAgreement bounds peak-hour disagreement on lossless trials
	// only: under data loss, gap repair legitimately perturbs the hourly
	// means of flat subscriptions enough to flip near-tie argmaxes.
	minPeakAgreement = 0.90

	meanUtilTolLossless = 0.01
	meanUtilTolLossy    = 0.05
	quantileTolLossless = 0.01
	quantileTolLossy    = 0.03
	// quantileRankTol is the alternative acceptance for sketch quantiles:
	// a histogram sketch is rank-accurate, so in a density gap (e.g. a
	// bimodal subscription whose median falls between its two modes) the
	// estimated value can sit far from the exact order statistic while
	// still splitting the population at the right fraction. An estimate
	// passes if it is close in value OR close in rank.
	quantileRankTol = 0.02
	rasTolLossless  = 0.02
	rasTolLossy     = 0.15
)

// quantileOK accepts a sketch estimate that is close to the exact order
// statistic in value, or splits the sorted population within
// quantileRankTol of the target rank.
func quantileOK(sorted []float64, target, exact, est, valueTol float64) bool {
	if math.Abs(est-exact) <= valueTol {
		return true
	}
	rank := float64(sort.SearchFloat64s(sorted, est)) / float64(len(sorted))
	return math.Abs(rank-target) <= quantileRankTol
}

// Divergence is one confirmed disagreement between the batch and
// streaming knowledge bases, tagged with the trial recipe that replays it.
type Divergence struct {
	Trial        Trial               `json:"trial"`
	Subscription core.SubscriptionID `json:"subscription,omitempty"`
	Field        string              `json:"field"`
	Batch        string              `json:"batch"`
	Stream       string              `json:"stream"`
}

func (d Divergence) String() string {
	where := "cloud-level"
	if d.Subscription != "" {
		where = "subscription " + string(d.Subscription)
	}
	return fmt.Sprintf("%s: %s field %s: batch %s, stream %s", d.Trial, where, d.Field, d.Batch, d.Stream)
}

// TrialResult is one trial's comparison outcome.
type TrialResult struct {
	Trial         Trial `json:"trial"`
	Subscriptions int   `json:"subscriptions"`
	// PatternAgreement is the dominant-pattern match fraction over
	// batch-classified subscriptions (1 when none were classified).
	PatternAgreement float64 `json:"patternAgreement"`
	// PeakHourAgreement is the peak-hour match fraction (lossless trials).
	PeakHourAgreement float64 `json:"peakHourAgreement"`
	// Deficit is the number of VM observations the stream lost to
	// injected drops/corruption (always 0 on lossless trials).
	Deficit     int64        `json:"deficit"`
	Divergences []Divergence `json:"divergences,omitempty"`
	// Truncated marks that the per-trial divergence cap was hit.
	Truncated bool `json:"truncated,omitempty"`
}

// Report is the gauntlet's full outcome.
type Report struct {
	Config  Config        `json:"config"`
	Results []TrialResult `json:"results"`
}

// Divergences flattens every trial's divergences, in trial order.
func (r *Report) Divergences() []Divergence {
	var out []Divergence
	for _, tr := range r.Results {
		out = append(out, tr.Divergences...)
	}
	return out
}

// Failed reports whether any trial diverged.
func (r *Report) Failed() bool { return len(r.Divergences()) > 0 }

// String renders the human-readable report: one line per trial, then the
// first divergence in full (the debugging entry point) and a count of the
// rest.
func (r *Report) String() string {
	var b strings.Builder
	divs := r.Divergences()
	fmt.Fprintf(&b, "diffcheck: %d trials, %d divergences\n", len(r.Results), len(divs))
	for _, tr := range r.Results {
		verdict := "ok"
		if len(tr.Divergences) > 0 {
			verdict = fmt.Sprintf("DIVERGED (%d)", len(tr.Divergences))
			if tr.Truncated {
				verdict += "+"
			}
		}
		fmt.Fprintf(&b, "  %s: %s subs=%d pattern=%.3f peak=%.3f deficit=%d\n",
			tr.Trial, verdict, tr.Subscriptions, tr.PatternAgreement, tr.PeakHourAgreement, tr.Deficit)
	}
	if len(divs) > 0 {
		fmt.Fprintf(&b, "first divergence: %s\n", divs[0])
	}
	return b.String()
}

// diffState accumulates divergences for one trial under the report cap.
type diffState struct {
	res *TrialResult
	max int
}

func (d *diffState) add(sub core.SubscriptionID, field, batch, stream string) {
	if len(d.res.Divergences) >= d.max {
		d.res.Truncated = true
		return
	}
	d.res.Divergences = append(d.res.Divergences, Divergence{
		Trial: d.res.Trial, Subscription: sub, Field: field, Batch: batch, Stream: stream,
	})
}

func (d *diffState) addf(sub core.SubscriptionID, field string, batch, stream float64) {
	d.add(sub, field, fmt.Sprintf("%.6g", batch), fmt.Sprintf("%.6g", stream))
}

// exactPools holds the exact utilization-sample populations both quantile
// comparisons are held against: every sample of every day-plus VM, pooled
// per subscription and per cloud (the same qualification rule — at least
// kb.MinProfileSteps of history — that both implementations apply).
type exactPools struct {
	perSub   map[core.SubscriptionID][]float64
	perCloud map[core.Cloud][]float64
	// dayPlus counts the day-plus VMs per subscription — the population
	// that feeds classification, quantiles, and region-agnosticism. Under
	// drops with GapSkip a borderline VM can fall short of the
	// qualification threshold in *observed* samples and leave the stream's
	// pool entirely, so statistical fields are only comparable when the
	// stream's qualified count matches this one.
	dayPlus map[core.SubscriptionID]int
}

func poolExact(tr *trace.Trace) *exactPools {
	p := &exactPools{
		perSub:   make(map[core.SubscriptionID][]float64),
		perCloud: make(map[core.Cloud][]float64),
		dayPlus:  make(map[core.SubscriptionID]int),
	}
	minSteps := kb.MinProfileStepsFor(tr.Grid)
	var buf []float64
	for i := range tr.VMs {
		v := &tr.VMs[i]
		from, to, ok := v.AliveRange(tr.Grid.N)
		if !ok || to-from < minSteps {
			continue
		}
		p.dayPlus[v.Subscription]++
		buf = v.Usage.SeriesInto(buf, tr.Grid, from, to)
		p.perSub[v.Subscription] = append(p.perSub[v.Subscription], buf...)
		p.perCloud[v.Cloud] = append(p.perCloud[v.Cloud], buf...)
	}
	return p
}

// compareTrial diffs the two knowledge bases field by field and returns
// the trial's result. Batch profiles are walked in subscription order, so
// the first reported divergence is deterministic.
func compareTrial(tl Trial, tr *trace.Trace, batch *kb.Snapshot, run *streamRun, maxDiv int) TrialResult {
	res := TrialResult{Trial: tl, PatternAgreement: 1, PeakHourAgreement: 1}
	d := &diffState{res: &res, max: maxDiv}

	for _, diff := range run.stateDiffs {
		d.add("", "resume.state", "uninterrupted twin's checkpoint", diff)
	}

	all := kb.Query{MinRegionAgnosticScore: -2}
	bps := batch.List(all)
	res.Subscriptions = len(bps)
	live := run.live.KB

	// The stream must never invent a subscription the trace does not have.
	for _, lp := range live.List(all) {
		if _, ok := batch.Get(lp.Subscription); !ok {
			d.add(lp.Subscription, "presence", "absent", fmt.Sprintf("present (%d VMs)", lp.VMsObserved))
		}
	}

	pools := poolExact(tr)
	var patternTotal, patternAgree, peakTotal, peakAgree int

	for _, bp := range bps {
		lp, ok := live.Get(bp.Subscription)
		if !ok {
			if run.lossless || len(bp.PatternShares) > 0 {
				// A lossless stream sees every VM; and even under drops a
				// subscription with a day-plus VM has hundreds of samples,
				// so its complete disappearance is a bug, not loss.
				d.add(bp.Subscription, "presence", fmt.Sprintf("present (%d VMs)", bp.VMsObserved), "absent")
			}
			res.Deficit += int64(bp.VMsObserved)
			continue
		}

		// Roster layer. Loss can shrink the observed roster but never grow
		// it; when the roster survives intact, every roster-derived field
		// must be bit-identical regardless of the fault mix.
		rosterComplete := lp.VMsObserved == bp.VMsObserved
		if lp.VMsObserved > bp.VMsObserved {
			d.addf(bp.Subscription, "vmsObserved", float64(bp.VMsObserved), float64(lp.VMsObserved))
		} else if !rosterComplete {
			if run.lossless {
				d.addf(bp.Subscription, "vmsObserved", float64(bp.VMsObserved), float64(lp.VMsObserved))
			}
			res.Deficit += int64(bp.VMsObserved - lp.VMsObserved)
		}
		if run.lossless || rosterComplete {
			if lp.Cloud != bp.Cloud {
				d.add(bp.Subscription, "cloud", bp.Cloud.String(), lp.Cloud.String())
			}
			if lp.Family != bp.Family {
				d.add(bp.Subscription, "family", bp.Family.String(), lp.Family.String())
			}
			if got, want := strings.Join(lp.Regions, ","), strings.Join(bp.Regions, ","); got != want {
				d.add(bp.Subscription, "regions", want, got)
			}
			if got, want := strings.Join(lp.Services, ","), strings.Join(bp.Services, ","); got != want {
				d.add(bp.Subscription, "services", want, got)
			}
			if lp.MedianLifetimeMin != bp.MedianLifetimeMin {
				d.addf(bp.Subscription, "medianLifetimeMin", bp.MedianLifetimeMin, lp.MedianLifetimeMin)
			}
			if lp.ShortLivedShare != bp.ShortLivedShare {
				d.addf(bp.Subscription, "shortLivedShare", bp.ShortLivedShare, lp.ShortLivedShare)
			}
		}
		// The snapshot census comes from the snapshot step's samples, so a
		// dropped reading can (legitimately) lose a census entry even when
		// the roster survived; the census can still never overcount.
		if run.lossless {
			if lp.SnapshotVMs != bp.SnapshotVMs {
				d.addf(bp.Subscription, "snapshotVMs", float64(bp.SnapshotVMs), float64(lp.SnapshotVMs))
			}
			if lp.SnapshotCores != bp.SnapshotCores {
				d.addf(bp.Subscription, "snapshotCores", float64(bp.SnapshotCores), float64(lp.SnapshotCores))
			}
		} else if lp.SnapshotVMs > bp.SnapshotVMs {
			d.addf(bp.Subscription, "snapshotVMs", float64(bp.SnapshotVMs), float64(lp.SnapshotVMs))
		}

		// Statistical layer. The fields below are aggregates over the
		// subscription's day-plus VMs, so they are only comparable when the
		// stream's qualified pool matches the batch one — under drops a
		// borderline VM can miss the observed-sample threshold and take its
		// whole series out of the stream's aggregates.
		prof := run.profile(bp.Subscription)
		poolComplete := run.lossless || prof.QualifiedVMs == pools.dayPlus[bp.Subscription]
		meanTol, qTol, rasTol := meanUtilTolLossy, quantileTolLossy, rasTolLossy
		if run.lossless {
			meanTol, qTol, rasTol = meanUtilTolLossless, quantileTolLossless, rasTolLossless
		}
		if bp.DominantPattern != core.PatternUnknown && poolComplete {
			patternTotal++
			if lp.DominantPattern == bp.DominantPattern {
				patternAgree++
			}
		}
		if run.lossless && bp.PeakHourUTC >= 0 {
			peakTotal++
			if lp.PeakHourUTC == bp.PeakHourUTC {
				peakAgree++
			}
		}
		bothClassified := len(bp.PatternShares) > 0 && len(lp.PatternShares) > 0
		if bothClassified && poolComplete {
			if diff := math.Abs(lp.MeanUtilization - bp.MeanUtilization); diff > meanTol {
				d.addf(bp.Subscription, "meanUtilization", bp.MeanUtilization, lp.MeanUtilization)
			}
			if samples := pools.perSub[bp.Subscription]; len(samples) > 0 && prof.Samples > 0 {
				sort.Float64s(samples)
				q := stats.QuantilesOf(samples, 0.5, 0.95)
				if !quantileOK(samples, 0.5, q[0], prof.UtilP50, qTol) {
					d.addf(bp.Subscription, "utilP50", q[0], prof.UtilP50)
				}
				if !quantileOK(samples, 0.95, q[1], prof.UtilP95, qTol) {
					d.addf(bp.Subscription, "utilP95", q[1], prof.UtilP95)
				}
			}
		}
		// Region-agnosticism is mean pairwise Pearson over regional hourly
		// series. Carry/interpolate rebuild dropped readings so the series
		// stay anchored, but skip deletes the point outright — and a
		// near-zero correlation has no deterministic bound under point
		// deletion (one lost top-of-hour reading can own a region-hour).
		rasComparable := run.lossless ||
			(rosterComplete && poolComplete && tl.GapPolicy != stream.GapSkip)
		if rasComparable {
			bDefined, lDefined := bp.RegionAgnosticScore > -1, lp.RegionAgnosticScore > -1
			switch {
			case bDefined != lDefined:
				d.addf(bp.Subscription, "regionAgnosticScore", bp.RegionAgnosticScore, lp.RegionAgnosticScore)
			case bDefined:
				if diff := math.Abs(lp.RegionAgnosticScore - bp.RegionAgnosticScore); diff > rasTol {
					d.addf(bp.Subscription, "regionAgnosticScore", bp.RegionAgnosticScore, lp.RegionAgnosticScore)
				}
			}
		}
	}

	if patternTotal > 0 {
		res.PatternAgreement = float64(patternAgree) / float64(patternTotal)
		minAgree := minPatternAgreement
		// Family oracle: the serverless batch and streaming classifiers
		// build their evidence with the identical sketch over the identical
		// delivered-sample order, so on lossless trials any dominant-class
		// disagreement is a pipeline bug, not statistical noise.
		if tl.Family == core.FamilyServerless && run.lossless {
			minAgree = 1
		}
		if res.PatternAgreement < minAgree {
			d.add("", "dominantPattern", fmt.Sprintf("agreement >= %.2f", minAgree),
				fmt.Sprintf("%.4f (%d/%d)", res.PatternAgreement, patternAgree, patternTotal))
		}
	}
	if peakTotal > 0 {
		res.PeakHourAgreement = float64(peakAgree) / float64(peakTotal)
		if res.PeakHourAgreement < minPeakAgreement {
			d.add("", "peakHourUTC", fmt.Sprintf("agreement >= %.2f", minPeakAgreement),
				fmt.Sprintf("%.4f (%d/%d)", res.PeakHourAgreement, peakAgree, peakTotal))
		}
	}

	// Cloud-level quantiles: the live sketches against exact order
	// statistics over the same qualification rule.
	qTol := quantileTolLossy
	if run.lossless {
		qTol = quantileTolLossless
	}
	for _, cloud := range core.Clouds() {
		samples := pools.perCloud[cloud]
		if len(samples) == 0 {
			continue
		}
		sort.Float64s(samples)
		q := stats.QuantilesOf(samples, 0.5, 0.95)
		cl := run.live.Clouds[cloud]
		if !quantileOK(samples, 0.5, q[0], cl.UtilP50, qTol) {
			d.addf("", "utilP50["+cloud.String()+"]", q[0], cl.UtilP50)
		}
		if !quantileOK(samples, 0.95, q[1], cl.UtilP95, qTol) {
			d.addf("", "utilP95["+cloud.String()+"]", q[1], cl.UtilP95)
		}
	}

	// Ledger reconciliation: the injector's exact account of what it did
	// must match the ingestor's books, and nothing repairable may be lost.
	fs := run.eng.FaultStats()
	if fs.DuplicatesDropped != run.ledger.Duplicated {
		d.addf("", "ledger.duplicates", float64(run.ledger.Duplicated), float64(fs.DuplicatesDropped))
	}
	if fs.Reordered != run.ledger.Delayed {
		d.addf("", "ledger.reordered", float64(run.ledger.Delayed), float64(fs.Reordered))
	}
	if fs.QuarantinedCorrupt != run.ledger.Corrupted {
		d.addf("", "ledger.corrupt", float64(run.ledger.Corrupted), float64(fs.QuarantinedCorrupt))
	}
	if fs.QuarantinedLate != 0 {
		d.addf("", "ledger.late", 0, float64(fs.QuarantinedLate))
	}
	// Every lost VM observation needs at least one destroyed sample.
	if lost := run.ledger.Dropped + run.ledger.Corrupted; res.Deficit > lost {
		d.addf("", "deficit", float64(lost), float64(res.Deficit))
	}

	return res
}

// compareShardInvariance holds a sharded run against the one-shard
// reference that replayed the identical (seeded) fault sequence. On
// lossless trials every published profile, the live profiles, the
// per-cloud summary, and the fault ledger must be bit-identical — the
// sharded merge contract. On lossy trials the destroyed readings are the
// same on both sides, so the ledgers must still reconcile exactly.
// Divergences are reported with the reference in the Batch column.
func compareShardInvariance(res *TrialResult, ref, sharded *streamRun, maxDiv int) {
	d := &diffState{res: res, max: maxDiv}
	if w, g := ref.eng.FaultStats(), sharded.eng.FaultStats(); w != g {
		d.add("", "shard.faultStats", fmt.Sprintf("%+v", w), fmt.Sprintf("%+v", g))
	}
	if !ref.lossless {
		return
	}
	all := kb.Query{MinRegionAgnosticScore: -2}
	want, got := ref.eng.KB().List(all), sharded.eng.KB().List(all)
	if len(got) != len(want) {
		d.add("", "shard.profiles", fmt.Sprintf("%d", len(want)), fmt.Sprintf("%d", len(got)))
		return
	}
	for i := range want {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			d.add(want[i].Subscription, "shard.profile",
				fmt.Sprintf("%+v", *want[i]), fmt.Sprintf("%+v", *got[i]))
		}
	}
	if w, g := ref.live.Live, sharded.live.Live; !reflect.DeepEqual(w, g) {
		d.add("", "shard.liveProfiles", fmt.Sprintf("%d entries", len(w)), "diverged")
	}
	if w, g := ref.live.Clouds, sharded.live.Clouds; !reflect.DeepEqual(w, g) {
		d.add("", "shard.summary", fmt.Sprintf("%+v", w), fmt.Sprintf("%+v", g))
	}
}
