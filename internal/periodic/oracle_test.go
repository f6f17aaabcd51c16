package periodic_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cloudlens/internal/classify"
	"cloudlens/internal/core"
	"cloudlens/internal/periodic"
	"cloudlens/internal/sim"
	"cloudlens/internal/trace"
	"cloudlens/internal/workload"
)

// The single-transform Detect is not bit-identical to the three-transform
// reference inside (its ACF and powers differ in the last few bits), so what
// is pinned is everything a caller can observe: the same lags in the same
// order, values within 1e-9, and the same class out of classify.Classify.

const oracleTol = 1e-9

// classifierOptions are the detector options classify.Classify runs with
// (see classify.Options.withDefaults).
var classifierOptions = periodic.Options{MinPower: 0.03, MaxCandidates: 12}

// comparePeriods runs both detectors and reports the first observable
// difference, or "" when there is none.
func comparePeriods(series []float64, opts periodic.Options) (got, want []periodic.Period, diff string) {
	got, want = periodic.Detect(series, opts), periodic.ReferenceDetect(series, opts)
	if len(got) != len(want) {
		return got, want, fmt.Sprintf("%d periods, reference %d\n got  %v\n want %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Lag != want[i].Lag {
			return got, want, fmt.Sprintf("period %d has lag %d, reference %d\n got  %v\n want %v", i, got[i].Lag, want[i].Lag, got, want)
		}
		if d := math.Abs(got[i].ACF - want[i].ACF); !(d <= oracleTol) {
			return got, want, fmt.Sprintf("lag %d ACF %v, reference %v", got[i].Lag, got[i].ACF, want[i].ACF)
		}
		if d := math.Abs(got[i].Power - want[i].Power); !(d <= oracleTol) {
			return got, want, fmt.Sprintf("lag %d power %v, reference %v", got[i].Lag, got[i].Power, want[i].Power)
		}
	}
	return got, want, ""
}

// evidence reads the validated hourly and daily autocorrelations off a
// period list by classify.Classify's matching rule.
func evidence(periods []periodic.Period, stepsPerHour int) (hourly, daily float64) {
	const tol = 0.15 // classify.Options.PeriodTolerance's default
	within := func(lag, target int) bool {
		return math.Abs(float64(lag-target)) <= tol*float64(target)
	}
	for _, p := range periods {
		if hourly == 0 && (within(p.Lag, stepsPerHour) || (stepsPerHour/2 >= 2 && within(p.Lag, stepsPerHour/2))) {
			hourly = p.ACF
		}
		if daily == 0 && within(p.Lag, 24*stepsPerHour) {
			daily = p.ACF
		}
	}
	return hourly, daily
}

// compareVM holds Detect, and the class classify.Classify builds on it,
// against the reference for one VM's series. It returns "" on agreement.
func compareVM(series []float64, perHour int, alsoDefaults bool) string {
	got, ref, diff := comparePeriods(series, classifierOptions)
	if diff == "" && alsoDefaults {
		_, _, diff = comparePeriods(series, periodic.Options{})
	}
	if diff != "" {
		return diff
	}
	res := classify.Classify(series, classify.Options{StepsPerHour: perHour})
	if res.Pattern == core.PatternStable {
		return "" // decided on the standard deviation alone
	}
	// The replica of Classify's matching rule must itself agree with
	// Classify before its verdict on the reference's periods counts.
	if h, d := evidence(got, perHour); h != res.HourlyACF || d != res.DailyACF {
		return fmt.Sprintf("evidence replica reads (%v, %v), Classify (%v, %v)", h, d, res.HourlyACF, res.DailyACF)
	}
	onRef := res
	onRef.HourlyACF, onRef.DailyACF = evidence(ref, perHour)
	if p := onRef.Decide(classify.Options{StepsPerHour: perHour}); p != res.Pattern {
		return fmt.Sprintf("classified %v, %v on the reference detector", res.Pattern, p)
	}
	return ""
}

// TestDetectMatchesReferenceOnGeneratedWorkloads draws VM series from the
// workload generator — both clouds, all four patterns, lifetimes from one day
// to the whole week — and compares them on GOMAXPROCS goroutines at once, so
// the pooled scratch and the transform plans are shared the way the parallel
// pipeline shares them.
func TestDetectMatchesReferenceOnGeneratedWorkloads(t *testing.T) {
	want, seeds := 5000, []uint64{1, 2, 3, 5, 8, 13}
	if testing.Short() {
		want, seeds = 600, seeds[:1]
	}
	type cell struct {
		cloud   core.Cloud
		pattern core.Pattern
	}
	seen := map[cell]int{}
	shortest, longest, compared := math.MaxInt, 0, 0
	for _, seed := range seeds {
		cfg := workload.DefaultConfig(seed)
		cfg.Scale = 0.1
		tr, err := workload.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var vms []*trace.VM
		for i := range tr.VMs {
			v := &tr.VMs[i]
			from, to, ok := v.AliveRange(tr.Grid.N)
			if !ok || to-from < tr.Grid.StepsPerDay() {
				continue
			}
			vms = append(vms, v)
			seen[cell{v.Cloud, v.Usage.Pattern}]++
			if n := to - from; n < shortest {
				shortest = n
			}
			if n := to - from; n > longest {
				longest = n
			}
		}
		diffs := make([]string, len(vms))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []float64
				for i := int(next.Add(1)) - 1; i < len(vms); i = int(next.Add(1)) - 1 {
					from, to, _ := vms[i].AliveRange(tr.Grid.N)
					buf = vms[i].Usage.SeriesInto(buf, tr.Grid, from, to)
					// Detector defaults hint less deeply than the
					// classifier's; a sample of them is enough.
					diffs[i] = compareVM(buf, tr.Grid.StepsPerHour(), i%8 == 0)
				}
			}()
		}
		wg.Wait()
		for i, d := range diffs {
			if d != "" {
				t.Fatalf("seed %d VM %d: %s", seed, vms[i].ID, d)
			}
		}
		if compared += len(vms); compared >= want {
			break
		}
	}
	if compared < want {
		t.Fatalf("only %d series compared, want at least %d", compared, want)
	}
	for _, cloud := range core.Clouds() {
		for _, p := range core.FamilyCPU.Patterns() {
			if seen[cell{cloud, p}] == 0 {
				t.Errorf("no %v %v series in the sample", cloud, p)
			}
		}
	}
	grid := sim.WeekGrid()
	if shortest > grid.StepsPerDay()+grid.StepsPerHour() || longest != grid.N {
		t.Errorf("lifetimes span %d…%d steps, want about one day…%d", shortest, longest, grid.N)
	}
	t.Logf("%d series, %d…%d steps, by (cloud, pattern): %v", compared, shortest, longest, seen)
}

// TestDetectMatchesReferenceOnSyntheticMixes sweeps lengths 8…5000 —
// every padding regime, odd and even, just below and above powers of two —
// over mixes of sines, block spikes and noise.
func TestDetectMatchesReferenceOnSyntheticMixes(t *testing.T) {
	lengths := []int{8, 9, 10, 15, 16, 17, 31, 33, 63, 64, 65, 100, 127, 129, 255, 257, 288, 300, 511, 513,
		576, 1000, 1023, 1024, 1025, 1440, 2016, 2047, 2048, 2049, 3000, 4095, 4096, 4097, 5000}
	rng := sim.NewRNG(99)
	for n := 8; n <= 5000; n += 1 + rng.Intn(97) {
		lengths = append(lengths, n)
	}
	series := make([]float64, 5000)
	for li, n := range lengths {
		for mix := 0; mix < 4; mix++ {
			seed := uint64(1000*li + mix)
			period := 2 + rng.Intn(n/2)
			// Amplitudes stay well above rounding: a series whose only
			// variance is floating-point dust has no period to agree on.
			sine, spike, noise := 0.2+0.8*rng.Float64(), 0.2+0.8*rng.Float64(), 0.2+0.8*rng.Float64()
			for i := 0; i < n; i++ {
				v := 0.3
				if mix != 1 {
					v += 0.25 * sine * math.Sin(2*math.Pi*float64(i)/float64(period)+0.7)
				}
				if mix != 0 && i%period < 1+period/8 {
					v += 0.4 * spike
				}
				if mix >= 2 {
					v += 0.2 * noise * sim.NoiseSigned(seed, i)
				}
				if mix == 3 {
					v += 0.1 * math.Sin(2*math.Pi*float64(i)/12)
				}
				series[i] = v
			}
			for _, opts := range []periodic.Options{{}, classifierOptions, {MinPower: 0.02, MaxCandidates: 12, SkipACFValidation: true}} {
				if _, _, diff := comparePeriods(series[:n], opts); diff != "" {
					t.Fatalf("n=%d mix %d period %d: %s", n, mix, period, diff)
				}
			}
		}
	}
}

// TestDetectAllocatesOnlyItsResult pins the pooled scratch: a warmed-up
// Detect allocates the returned slice and what the two sorts need, not the
// 128 KB of buffers the reference makes per call.
func TestDetectAllocatesOnlyItsResult(t *testing.T) {
	series := make([]float64, 2016)
	for i := range series {
		series[i] = 0.3 + 0.2*math.Sin(2*math.Pi*float64(i)/288) + 0.05*sim.NoiseSigned(3, i)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if len(periodic.Detect(series, classifierOptions)) == 0 {
			t.Fatal("no period in a noisy daily sine")
		}
	})
	if allocs > 8 {
		t.Fatalf("Detect made %v allocations per call, want at most 8", allocs)
	}
}
