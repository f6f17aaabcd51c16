// Package usage models per-VM CPU utilization as lazily evaluated,
// deterministic functions of time. The four model kinds mirror the paper's
// Section IV-A taxonomy:
//
//   - diurnal: a daily bell peaking during working hours, damped on
//     weekends (Figure 5a shows ~60% weekday peaks vs ~20% weekend peaks);
//   - stable: a flat level with small jitter, the over-subscription
//     candidate of Figure 5b (top);
//   - irregular: mostly idle (<10%) with abrupt spikes above 60% and no
//     periodic structure, Figure 5b (bottom);
//   - hourly-peak: sharp peaks at the hour/half-hour marks riding on a
//     daytime envelope (scheduled-meeting joins), Figure 5c.
//
// The serverless invocation family adds three invocation-rate kinds (values
// are invocation counts normalized to the function's provisioned peak):
//
//   - bursty: clustered bursts of calls whose per-block probability follows
//     a diurnal envelope, with a cold-start penalty damping the first block
//     of a burst that follows an idle block;
//   - steady: a near-constant call rate (hot, always-warm functions);
//   - spiky: idle almost always with rare, very tall spikes (the cold
//     tail of the function popularity distribution).
//
// A model's value at a step is a pure function of its Params (including a
// noise seed), so traces store parameters instead of 2016-sample arrays and
// materialize series on demand.
package usage

import (
	"fmt"
	"math"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/obs"
	"cloudlens/internal/sim"
)

var seriesSteps = obs.Default.Counter("cloudlens_usage_series_steps_total",
	"VM-steps materialized by usage.Params.SeriesInto.")

// Params fully describes a utilization model. The zero value is not valid;
// construct instances via the workload generator or the helper constructors
// in this package.
type Params struct {
	// Pattern selects the model kind.
	Pattern core.Pattern `json:"pattern"`
	// Base is the idle/baseline utilization fraction in [0, 1].
	Base float64 `json:"base"`
	// Amp is the diurnal amplitude above Base (diurnal and hourly-peak
	// envelopes).
	Amp float64 `json:"amp,omitempty"`
	// PeakMinute is the minute-of-day of the diurnal peak in the model's
	// anchor time zone.
	PeakMinute int `json:"peakMinute,omitempty"`
	// TZOffsetMin is the deployment region's offset from UTC in minutes;
	// it anchors the daily cycle unless UTCAnchored is set.
	TZOffsetMin int `json:"tzOffsetMin,omitempty"`
	// UTCAnchored pins the daily cycle to UTC regardless of region. This
	// is the geo-load-balancer effect behind the paper's region-agnostic
	// workloads (Figure 7c): utilization peaks align across time zones.
	UTCAnchored bool `json:"utcAnchored,omitempty"`
	// WeekendFactor scales the amplitude on Saturdays and Sundays;
	// 1 means no weekend effect.
	WeekendFactor float64 `json:"weekendFactor,omitempty"`
	// Sharpness shapes the diurnal bell; higher values concentrate the
	// peak into fewer hours. Values around 2-4 resemble the paper's
	// working-hours curves.
	Sharpness float64 `json:"sharpness,omitempty"`
	// NoiseAmp is the half-width of the uniform per-sample jitter.
	NoiseAmp float64 `json:"noiseAmp,omitempty"`
	// Seed makes the jitter (and irregular spikes) reproducible.
	Seed uint64 `json:"seed"`
	// SpikeProb is the per-block probability of an irregular spike.
	SpikeProb float64 `json:"spikeProb,omitempty"`
	// SpikeLevel is the utilization an irregular spike reaches.
	SpikeLevel float64 `json:"spikeLevel,omitempty"`
	// SpikeBlockSteps is the spike duration in samples.
	SpikeBlockSteps int `json:"spikeBlockSteps,omitempty"`
	// PeakAmp is the height of hourly peaks above the envelope.
	PeakAmp float64 `json:"peakAmp,omitempty"`
	// PeakWidthMin is the hourly peak duration in minutes.
	PeakWidthMin int `json:"peakWidthMin,omitempty"`
	// HalfHourPeaks adds peaks at the half-hour marks as well.
	HalfHourPeaks bool `json:"halfHourPeaks,omitempty"`
	// BurstProb is the bursty model's per-block burst probability at the
	// top of its diurnal envelope.
	BurstProb float64 `json:"burstProb,omitempty"`
	// BurstLevel is the normalized invocation rate a burst reaches.
	BurstLevel float64 `json:"burstLevel,omitempty"`
	// BurstBlockSteps is the burst duration in samples.
	BurstBlockSteps int `json:"burstBlockSteps,omitempty"`
	// ColdStartPenalty in [0, 1] damps the first block of a burst that
	// follows an idle block: cold-start latency eats into the invocations
	// completed in that interval. 0 disables the effect.
	ColdStartPenalty float64 `json:"coldStartPenalty,omitempty"`
}

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	switch p.Pattern {
	case core.PatternDiurnal, core.PatternStable, core.PatternIrregular,
		core.PatternHourlyPeak, core.PatternBursty, core.PatternSteady,
		core.PatternSpiky:
	default:
		return fmt.Errorf("usage: invalid pattern %v", p.Pattern)
	}
	if p.Base < 0 || p.Base > 1 {
		return fmt.Errorf("usage: base %v out of [0,1]", p.Base)
	}
	if p.Amp < 0 || p.Base+p.Amp > 1.5 {
		return fmt.Errorf("usage: amplitude %v out of range", p.Amp)
	}
	if (p.Pattern == core.PatternIrregular || p.Pattern == core.PatternSpiky) && p.SpikeBlockSteps <= 0 {
		return fmt.Errorf("usage: %v model needs SpikeBlockSteps > 0", p.Pattern)
	}
	if p.Pattern == core.PatternHourlyPeak && p.PeakWidthMin <= 0 {
		return fmt.Errorf("usage: hourly-peak model needs PeakWidthMin > 0")
	}
	if p.Pattern == core.PatternBursty {
		if p.BurstBlockSteps <= 0 {
			return fmt.Errorf("usage: bursty model needs BurstBlockSteps > 0")
		}
		if !(p.BurstProb >= 0 && p.BurstProb <= 1) {
			return fmt.Errorf("usage: burst probability %v out of [0,1]", p.BurstProb)
		}
		if !(p.BurstLevel >= 0 && p.BurstLevel <= 1) {
			return fmt.Errorf("usage: burst level %v out of [0,1]", p.BurstLevel)
		}
	}
	if !(p.ColdStartPenalty >= 0 && p.ColdStartPenalty <= 1) {
		return fmt.Errorf("usage: cold-start penalty %v out of [0,1]", p.ColdStartPenalty)
	}
	return nil
}

// anchorOffset returns the minutes offset that anchors the daily cycle.
func (p *Params) anchorOffset() int {
	if p.UTCAnchored {
		return 0
	}
	return p.TZOffsetMin
}

// At returns the CPU utilization fraction in [0, 1] at sample step of grid g.
func (p Params) At(g sim.Grid, step int) float64 {
	return p.at(g, step)
}

// at is At behind a pointer: the model helpers below all take *Params so the
// struct is copied once per exported call, not once per helper.
func (p *Params) at(g sim.Grid, step int) float64 {
	switch p.Pattern {
	case core.PatternDiurnal, core.PatternHourlyPeak:
		off := p.anchorOffset()
		m := g.MinuteOfDay(step, off)
		return p.atBell(step, m, p.bell(m), g.IsWeekend(step, off))
	case core.PatternIrregular, core.PatternSpiky:
		return p.jitter(step, p.Base+p.spikeComponent(step))
	case core.PatternBursty:
		return p.jitter(step, p.Base+p.burstComponent(g, step))
	default: // stable, steady
		return p.jitter(step, p.Base)
	}
}

// atBell is at for the two patterns that ride on the daily bell, given what
// the step's local time decides: its minute of day m, the bell's value at m,
// and whether its day is a weekend day. At works all three out for the one
// step; SeriesInto carries the bell over from the same minute of an earlier
// day and the weekend flag over from the previous step of the same day.
// Either way the arithmetic from here on is the same.
func (p *Params) atBell(step, m int, bell float64, weekend bool) float64 {
	env := p.diurnalComponent(bell, weekend)
	if p.Pattern == core.PatternHourlyPeak {
		return p.jitter(step, p.Base+p.hourlyPeakComponent(m, env))
	}
	return p.jitter(step, p.Base+env)
}

// jitter adds the per-sample noise to v and clamps the result into [0, 1].
func (p *Params) jitter(step int, v float64) float64 {
	v += p.NoiseAmp * sim.NoiseSigned(p.Seed, step)
	return clamp01(v)
}

// bell is the sharpened daily bell in [0, 1] at minute-of-day m: 1 at
// PeakMinute, 0 twelve hours away. It depends on the step only through m.
func (p *Params) bell(m int) float64 {
	phase := 2 * math.Pi * float64(m-p.PeakMinute) / (24 * 60)
	bell := 0.5 * (1 + math.Cos(phase))
	sharp := p.Sharpness
	if sharp <= 0 {
		sharp = 1
	}
	return math.Pow(bell, sharp)
}

// diurnalComponent is the daily bell scaled by the amplitude, including the
// weekend damping.
func (p *Params) diurnalComponent(bell float64, weekend bool) float64 {
	amp := p.Amp
	if weekend {
		wf := p.WeekendFactor
		if wf == 0 {
			wf = 1
		}
		amp *= wf
	}
	return amp * bell
}

// spikeComponent produces block-aligned irregular spikes: the decision to
// spike is drawn once per block so spikes persist for SpikeBlockSteps
// samples, matching the "raises above 60% for a short time with no apparent
// sign" description.
func (p *Params) spikeComponent(step int) float64 {
	if p.SpikeBlockSteps <= 0 || p.SpikeProb <= 0 {
		return 0
	}
	block := step / p.SpikeBlockSteps
	draw := sim.Noise01(p.Seed^0xa5a5a5a5a5a5a5a5, block)
	if draw >= p.SpikeProb {
		return 0
	}
	// Spike height varies per block so repeated spikes differ.
	height := 0.7 + 0.3*sim.Noise01(p.Seed^0x5a5a5a5a5a5a5a5a, block)
	return p.SpikeLevel * height
}

// hourlyPeakComponent produces the meeting-join peaks: the daytime diurnal
// envelope env plus tall spikes in the first PeakWidthMin minutes of each
// hour (and optionally half-hour) of minute-of-day m.
func (p *Params) hourlyPeakComponent(m int, env float64) float64 {
	minuteOfHour := m % 60
	inPeak := minuteOfHour < p.PeakWidthMin
	if p.HalfHourPeaks && minuteOfHour >= 30 && minuteOfHour < 30+p.PeakWidthMin {
		inPeak = true
	}
	if !inPeak {
		return env
	}
	// The peak height follows the envelope so hourly peaks are tall
	// during working hours and muted at night, as in Figure 5(c)/7(c).
	scale := 0.2
	if p.Amp > 0 {
		scale = env / p.Amp
	}
	return env + p.PeakAmp*scale
}

// Salt constants separating the bursty model's independent noise streams.
const (
	burstDrawSalt   = 0x3c3c3c3c3c3c3c3c
	burstHeightSalt = 0xc3c3c3c3c3c3c3c3
)

// burstComponent produces the serverless burst component: block-aligned
// bursts whose probability follows the diurnal envelope, damped by the
// cold-start penalty when the previous block was idle. Like every model it
// is a pure function of (Params, grid, step) — whether block b-1 burst is
// recomputed, never stored.
func (p *Params) burstComponent(g sim.Grid, step int) float64 {
	if p.BurstBlockSteps <= 0 || p.BurstProb <= 0 {
		return 0
	}
	b := step / p.BurstBlockSteps
	if !p.burstsAt(g, b) {
		return 0
	}
	// Burst height varies per block so repeated bursts differ.
	h := p.BurstLevel * (0.6 + 0.4*sim.Noise01(p.Seed^burstHeightSalt, b))
	if p.ColdStartPenalty > 0 && (b == 0 || !p.burstsAt(g, b-1)) {
		h *= 1 - p.ColdStartPenalty
	}
	return h
}

// burstsAt decides whether block b bursts: one seeded draw per block,
// accepted with a probability that follows the daily bell at the block's
// first sample (bursts cluster in the function's busy hours but never fully
// stop off-peak).
func (p *Params) burstsAt(g sim.Grid, b int) bool {
	env := p.bell(g.MinuteOfDay(b*p.BurstBlockSteps, p.anchorOffset()))
	draw := sim.Noise01(p.Seed^burstDrawSalt, b)
	return draw < p.BurstProb*(0.25+0.75*env)
}

// Series materializes the utilization fractions for steps [from, to).
func (p Params) Series(g sim.Grid, from, to int) []float64 {
	return p.SeriesInto(nil, g, from, to)
}

// SeriesInto materializes the utilization fractions for steps [from, to)
// into buf, reallocating only when buf is too small. Hot paths that
// materialize many series transiently (classification sweeps, correlation
// studies) pass a per-worker scratch buffer to keep allocations flat.
//
// Element i equals At(g, from+i) exactly. For the patterns that ride on the
// daily bell — one cosine and one power per evaluation — the bell is
// evaluated once per distinct minute of day and reused on the days after,
// which cannot change a bit because the bell is a function of the minute of
// day alone; likewise the day of the week is looked up once per local day.
func (p Params) SeriesInto(buf []float64, g sim.Grid, from, to int) []float64 {
	if to > g.N {
		to = g.N
	}
	if from < 0 {
		from = 0
	}
	if from >= to {
		return nil
	}
	n := to - from
	seriesSteps.Add(int64(n))
	var out []float64
	if cap(buf) >= n {
		out = buf[:n]
	} else {
		out = make([]float64, n)
	}
	switch p.Pattern {
	case core.PatternDiurnal, core.PatternHourlyPeak:
		// day[m] is the bell at minute m once evaluated. 0 stands for "not
		// yet": a bell that really is 0 (twelve hours off the peak) is
		// simply evaluated again.
		var day [24 * 60]float64
		off := p.anchorOffset()
		// Steps shorter than a day enter a new local day exactly when the
		// minute of day wraps; prev starts past the last minute so the
		// first step looks its day up too. Longer steps look up every day.
		everyStep := g.Step >= 24*time.Hour
		weekend, prev := false, 24*60
		for i := range out {
			m := g.MinuteOfDay(from+i, off)
			if m < prev || everyStep {
				weekend = g.IsWeekend(from+i, off)
			}
			prev = m
			if day[m] == 0 {
				day[m] = p.bell(m)
			}
			out[i] = p.atBell(from+i, m, day[m], weekend)
		}
	default:
		for i := range out {
			out[i] = p.at(g, from+i)
		}
	}
	return out
}

// MeanOver returns the average utilization fraction over steps [from, to).
func (p Params) MeanOver(g sim.Grid, from, to int) float64 {
	if to > g.N {
		to = g.N
	}
	if from < 0 {
		from = 0
	}
	if from >= to {
		return 0
	}
	sum := 0.0
	for i := from; i < to; i++ {
		sum += p.at(g, i)
	}
	return sum / float64(to-from)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
