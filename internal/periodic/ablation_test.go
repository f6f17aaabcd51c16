package periodic

import (
	"math"
	"testing"

	"cloudlens/internal/sim"
)

// leakageSeries is a 26-hour (312-sample) oscillation that falls between
// periodogram bins, riding on a linear trend — both classic sources of
// spectral leakage — plus mild noise.
func leakageSeries() []float64 {
	series := make([]float64, 2016)
	for i := range series {
		series[i] = 0.2 + 0.25*math.Sin(2*math.Pi*float64(i)/312) +
			0.1*float64(i)/2016 + 0.05*sim.NoiseSigned(9, i)
	}
	return series
}

// nearTruePeriod accepts lags within 10% of the true period or its
// spectral sub-harmonics (divisor periods surfaced by the periodogram).
func nearTruePeriod(lag int) bool {
	for _, h := range []int{312, 624, 936, 156, 104} {
		diff := lag - h
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) <= 0.1*float64(h) {
			return true
		}
	}
	return false
}

// TestACFValidationRemovesFalsePositives is the AUTOPERIOD ablation: with
// identical hint thresholds, the raw periodogram surfaces leakage periods
// (including lags with negative autocorrelation) that the ACF hill
// validation rejects.
func TestACFValidationRemovesFalsePositives(t *testing.T) {
	series := leakageSeries()
	validated := Detect(series, Options{MinPower: 0.02, MaxCandidates: 12, MinACF: 0.2})
	raw := Detect(series, Options{MinPower: 0.02, MaxCandidates: 12, SkipACFValidation: true})

	if len(raw) <= len(validated) {
		t.Fatalf("validation removed nothing: raw %d vs validated %d candidates",
			len(raw), len(validated))
	}
	rawSpurious := 0
	for _, p := range raw {
		if !nearTruePeriod(p.Lag) || p.ACF < 0.2 {
			rawSpurious++
		}
	}
	if rawSpurious < 2 {
		t.Fatalf("leakage signal produced only %d spurious raw candidates: %v", rawSpurious, raw)
	}
	if len(validated) == 0 {
		t.Fatal("validation removed the true period too")
	}
	for _, p := range validated {
		if !nearTruePeriod(p.Lag) {
			t.Fatalf("spurious period %v survived validation", p)
		}
		if p.ACF < 0.2 {
			t.Fatalf("validated period %v has weak autocorrelation", p)
		}
	}
}

// TestACFValidationSharpensLag shows the second benefit: frequency-domain
// lags are coarse (N/k rounding), and hill-climbing snaps them onto the
// exact autocorrelation peak. On the leakage signal the strongest raw hint
// is 293 or 341 (adjacent bins); validation recovers ~312.
func TestACFValidationSharpensLag(t *testing.T) {
	ps := Detect(leakageSeries(), Options{})
	if len(ps) == 0 {
		t.Fatal("no period found")
	}
	p := ps[0]
	if d := p.Lag - 312; d < -8 || d > 8 {
		t.Fatalf("validated lag %d, want ~312", p.Lag)
	}
	raw := Detect(leakageSeries(), Options{SkipACFValidation: true})
	if len(raw) == 0 {
		t.Fatal("no raw candidates")
	}
	if raw[0].Lag == p.Lag {
		t.Fatalf("raw top candidate already exact (%d); leakage signal miscalibrated", raw[0].Lag)
	}
}
