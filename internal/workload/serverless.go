package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/platform"
	"cloudlens/internal/sim"
	"cloudlens/internal/trace"
	"cloudlens/internal/usage"
)

// ServerlessConfig controls generation of the serverless/FaaS invocation
// family: apps (subscriptions) deploying functions whose per-function
// invocation-count series ride a Zipf-skewed popularity distribution, on a
// grid finer than the CPU family's five minutes. Use
// DefaultServerlessConfig as the base.
//
// The model follows the request-trace generators of the FaaS benchmarking
// literature: a small head of hot functions carries most invocations
// (steady or diurnal), a middle band fires in diurnally modulated bursts,
// and a long tail is idle almost always with rare spikes whose first
// interval pays a cold-start penalty.
type ServerlessConfig struct {
	// Seed drives all randomness.
	Seed uint64
	// Scale multiplies the app count. 1.0 is a laptop-sized universe.
	Scale float64
	// Grid is the observation window; DefaultServerlessConfig uses
	// ServerlessGrid(2): two days at one-minute resolution. Any step that
	// divides an hour is legal, including sub-minute steps.
	Grid sim.Grid
	// Topology is the physical substrate; nil selects DefaultTopology.
	Topology *platform.Topology
	// Apps is the application (subscription) count at Scale 1.
	Apps int
	// FunctionsPerApp is the mean function count per app.
	FunctionsPerApp int
	// ZipfS is the skew of the per-app function popularity distribution:
	// function rank r gets relative popularity r^-ZipfS.
	ZipfS float64
	// ColdStartPenalty in [0, 1] is the invocation-rate damping of the
	// first burst block after an idle block (cold-start latency eating
	// into completed invocations).
	ColdStartPenalty float64
	// ChurnFraction is the share of functions redeployed mid-window
	// (created and/or deleted inside the observation window).
	ChurnFraction float64
	// Placement ablates allocator-policy ingredients; the zero value is
	// the full policy.
	Placement platform.AllocatorOptions
}

// ServerlessGrid returns the serverless family's canonical grid: the same
// Monday anchor as WeekGrid, sampled every minute for the given number of
// days.
func ServerlessGrid(days int) sim.Grid {
	g := sim.WeekGrid()
	g.Step = time.Minute
	g.N = days * 24 * 60
	return g
}

// DefaultServerlessConfig returns the calibrated serverless configuration.
func DefaultServerlessConfig(seed uint64) ServerlessConfig {
	return ServerlessConfig{
		Seed:             seed,
		Scale:            1,
		Grid:             ServerlessGrid(2),
		Apps:             24,
		FunctionsPerApp:  8,
		ZipfS:            1.1,
		ColdStartPenalty: 0.35,
		ChurnFraction:    0.15,
	}
}

// Validate reports configuration errors.
func (c *ServerlessConfig) Validate() error {
	if !(c.Scale > 0) || math.IsInf(c.Scale, 1) {
		return fmt.Errorf("workload: serverless scale must be positive and finite, got %v", c.Scale)
	}
	if c.Grid.N <= 0 || c.Grid.Step <= 0 {
		return fmt.Errorf("workload: serverless grid is invalid")
	}
	if c.Grid.StepsPerHour() == 0 {
		return fmt.Errorf("workload: serverless grid step %v must divide one hour evenly", c.Grid.Step)
	}
	if c.Grid.N < 2*c.Grid.StepsPerDay() {
		return fmt.Errorf("workload: serverless window of %d steps is under two days; the daily-cycle taxonomy needs at least two", c.Grid.N)
	}
	if c.Apps <= 0 || c.FunctionsPerApp <= 0 {
		return fmt.Errorf("workload: serverless app and function counts must be positive")
	}
	if !(c.ZipfS > 0) || math.IsInf(c.ZipfS, 1) {
		return fmt.Errorf("workload: serverless zipf exponent must be positive and finite, got %v", c.ZipfS)
	}
	if !(c.ColdStartPenalty >= 0 && c.ColdStartPenalty <= 1) {
		return fmt.Errorf("workload: serverless cold-start penalty %v out of [0,1]", c.ColdStartPenalty)
	}
	if !(c.ChurnFraction >= 0 && c.ChurnFraction <= 1) {
		return fmt.Errorf("workload: serverless churn fraction %v out of [0,1]", c.ChurnFraction)
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
	}
	return nil
}

// functionSlotSize is the per-replica resource grant of a function slot;
// FaaS platforms bin-pack small fixed-size slots rather than tenant-chosen
// VM shapes.
var functionSlotSize = core.VMSize{Cores: 1, MemoryGB: 2}

// GenerateServerless produces a complete validated serverless-family trace
// from the configuration. Placement reuses the CPU generator's allocator
// replay, so function slots land on the public platform's topology with
// the same affinity policy VM requests get.
func GenerateServerless(cfg ServerlessConfig) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topology
	if topo == nil {
		topo = DefaultTopology(cfg.Scale)
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}

	root := sim.NewRNG(cfg.Seed)
	g := &generator{
		cfg:  Config{Grid: cfg.Grid, Scale: cfg.Scale, Placement: cfg.Placement},
		topo: topo,
	}
	apps := g.scaleCount(cfg.Apps)
	for a := 0; a < apps; a++ {
		appRNG := root.Fork(fmt.Sprintf("app-%04d", a+1))
		g.specs = append(g.specs, genApp(appRNG, &cfg, g, a)...)
	}

	t := g.place()
	t.Family = core.FamilyServerless
	t.Meta = trace.Meta{
		Seed:      cfg.Seed,
		Scale:     cfg.Scale,
		Generator: "cloudlens serverless generator",
	}
	t.Meta.AllocationFailures = g.allocationFailures
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid serverless trace: %w", err)
	}
	return t, nil
}

// genApp emits the function slots of one application. Function rank r has
// Zipf popularity r^-ZipfS relative to the app's hottest function; the
// popularity band selects the invocation model and the replica count.
func genApp(rng *sim.RNG, cfg *ServerlessConfig, g *generator, appIdx int) []vmSpec {
	sub := core.SubscriptionID(fmt.Sprintf("fn-app-%04d", appIdx+1))
	regions := g.pickRegions(rng, core.Public, 1+rng.Intn(2), nil)
	// User-facing apps anchor their hot path to the daily cycle; backend
	// apps keep it flat.
	userFacing := rng.Bool(0.5)
	nFuncs := 1 + rng.Intn(2*cfg.FunctionsPerApp-1)
	var specs []vmSpec
	for r := 1; r <= nFuncs; r++ {
		pop := math.Pow(float64(r), -cfg.ZipfS)
		fnRNG := rng.Fork(fmt.Sprintf("fn-%03d", r))
		params := functionTemplate(fnRNG, cfg, pop, userFacing)
		replicas := 1 + int(math.Round(3*pop))
		for rep := 0; rep < replicas; rep++ {
			region := regions[rep%len(regions)]
			created, deleted := functionLifetime(fnRNG, cfg)
			params := params
			params.Seed = fnRNG.Uint64()
			params.TZOffsetMin = g.topo.TZOffsetMin(region)
			specs = append(specs, vmSpec{
				sub:     sub,
				service: fmt.Sprintf("fn-%04d-%03d", appIdx+1, r),
				cloud:   core.Public,
				region:  region,
				size:    functionSlotSize,
				created: created,
				deleted: deleted,
				usage:   params,
			})
		}
	}
	return specs
}

// functionTemplate maps a function's popularity band to an invocation
// model: the hot head is steady (or diurnal for user-facing apps), the
// middle band bursts under a diurnal envelope with the cold-start penalty,
// and the tail is spiky.
func functionTemplate(rng *sim.RNG, cfg *ServerlessConfig, pop float64, userFacing bool) usage.Params {
	sph := cfg.Grid.StepsPerHour()
	// Burst and spike blocks last ~10 and ~5 minutes regardless of grid
	// resolution, with a floor of one sample.
	burstBlock := sph / 6
	if burstBlock < 1 {
		burstBlock = 1
	}
	spikeBlock := sph / 12
	if spikeBlock < 1 {
		spikeBlock = 1
	}
	switch {
	case pop >= 0.7:
		if userFacing {
			p := usage.Diurnal(
				uniformIn(rng, 0.12, 0.2),
				uniformIn(rng, 0.35, 0.5),
				0, rng.Uint64())
			p.WeekendFactor = uniformIn(rng, 0.5, 0.8)
			p.Sharpness = uniformIn(rng, 1.5, 2.5)
			p.PeakMinute = int(uniformIn(rng, 11*60, 16*60))
			return p
		}
		return usage.Steady(uniformIn(rng, 0.4, 0.7), rng.Uint64())
	case pop >= 0.2:
		return usage.Bursty(
			uniformIn(rng, 0.02, 0.04),
			uniformIn(rng, 0.35, 0.75)*math.Sqrt(pop/0.5),
			burstBlock,
			int(uniformIn(rng, 10*60, 17*60)),
			cfg.ColdStartPenalty,
			rng.Uint64())
	default:
		return usage.Spiky(uniformIn(rng, 0.6, 0.9), spikeBlock, rng.Uint64())
	}
}

// functionLifetime draws a function's deployment window: most functions
// predate and outlive the observation window; ChurnFraction of them are
// deployed or retired inside it (half of those both).
func functionLifetime(rng *sim.RNG, cfg *ServerlessConfig) (created, deleted int) {
	n := cfg.Grid.N
	if !rng.Bool(cfg.ChurnFraction) {
		return baseLifetime(rng, n)
	}
	switch rng.Intn(3) {
	case 0: // deployed mid-window, outlives it
		return 1 + rng.Intn(n/2), n + 1 + rng.Intn(n)
	case 1: // predates the window, retired mid-window
		return -(1 + rng.Intn(n)), n/2 + rng.Intn(n/2)
	default: // deployed and retired inside the window
		created = 1 + rng.Intn(n/3)
		return created, created + n/3 + rng.Intn(n/3)
	}
}

// String renders the config in ParseServerlessSpec's grammar
// (round-trippable).
func (c ServerlessConfig) String() string {
	parts := []string{
		"apps=" + strconv.Itoa(c.Apps),
		"fns=" + strconv.Itoa(c.FunctionsPerApp),
		"zipf=" + strconv.FormatFloat(c.ZipfS, 'g', -1, 64),
		"cold=" + strconv.FormatFloat(c.ColdStartPenalty, 'g', -1, 64),
		"churn=" + strconv.FormatFloat(c.ChurnFraction, 'g', -1, 64),
		"step=" + c.Grid.Step.String(),
		"steps=" + strconv.Itoa(c.Grid.N),
		"scale=" + strconv.FormatFloat(c.Scale, 'g', -1, 64),
		"seed=" + strconv.FormatUint(c.Seed, 10),
	}
	return strings.Join(parts, ",")
}

// ParseServerlessSpec parses the -serverless flag grammar: a
// comma-separated list of key=value pairs overriding
// DefaultServerlessConfig. Keys: apps, fns, zipf, cold, churn, step
// (a duration dividing one hour), days, steps, scale, seed. "" selects the
// defaults. Example:
//
//	apps=24,fns=8,zipf=1.1,cold=0.35,step=30s,days=2,seed=7
func ParseServerlessSpec(str string) (ServerlessConfig, error) {
	cfg := DefaultServerlessConfig(0)
	str = strings.TrimSpace(str)
	if str == "" {
		return cfg, nil
	}
	seen := make(map[string]bool, 10)
	days := 0
	steps := 0
	for _, field := range strings.Split(str, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return ServerlessConfig{}, fmt.Errorf("workload: serverless spec: %q is not key=value", field)
		}
		if seen[key] {
			return ServerlessConfig{}, fmt.Errorf("workload: serverless spec: duplicate key %q", key)
		}
		seen[key] = true
		num := func(v string) (float64, error) {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("workload: serverless spec: %s: %v", key, err)
			}
			return f, nil
		}
		count := func(v string) (int, error) {
			i, err := strconv.Atoi(v)
			if err != nil {
				return 0, fmt.Errorf("workload: serverless spec: %s: %v", key, err)
			}
			return i, nil
		}
		var err error
		switch key {
		case "apps":
			cfg.Apps, err = count(val)
		case "fns":
			cfg.FunctionsPerApp, err = count(val)
		case "zipf":
			cfg.ZipfS, err = num(val)
		case "cold":
			cfg.ColdStartPenalty, err = num(val)
		case "churn":
			cfg.ChurnFraction, err = num(val)
		case "scale":
			cfg.Scale, err = num(val)
		case "seed":
			cfg.Seed, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("workload: serverless spec: seed: %v", err)
			}
		case "step":
			cfg.Grid.Step, err = time.ParseDuration(val)
			if err != nil {
				err = fmt.Errorf("workload: serverless spec: step: %v", err)
			}
		case "days":
			days, err = count(val)
		case "steps":
			steps, err = count(val)
		default:
			return ServerlessConfig{}, fmt.Errorf("workload: serverless spec: unknown key %q (want apps, fns, zipf, cold, churn, step, days, steps, scale, seed)", key)
		}
		if err != nil {
			return ServerlessConfig{}, err
		}
	}
	if days != 0 && steps != 0 {
		return ServerlessConfig{}, fmt.Errorf("workload: serverless spec: days and steps are mutually exclusive")
	}
	if cfg.Grid.Step <= 0 || cfg.Grid.StepsPerHour() == 0 {
		return ServerlessConfig{}, fmt.Errorf("workload: serverless spec: step %v must divide one hour evenly", cfg.Grid.Step)
	}
	switch {
	case days != 0:
		if days < 0 {
			return ServerlessConfig{}, fmt.Errorf("workload: serverless spec: days=%d is negative", days)
		}
		cfg.Grid.N = days * cfg.Grid.StepsPerDay()
	case steps != 0:
		cfg.Grid.N = steps
	case seen["step"]:
		// A new step with neither days nor steps keeps the default
		// two-day window at the new resolution.
		cfg.Grid.N = 2 * cfg.Grid.StepsPerDay()
	}
	if err := cfg.Validate(); err != nil {
		return ServerlessConfig{}, err
	}
	return cfg, nil
}
