// Package obs is the observability layer of the serving and streaming
// stack: a dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket histograms with Prometheus text exposition) plus slog-based
// structured logging helpers.
//
// The design goal is an allocation-free hot path. Instruments are resolved
// once — at package init or route registration — into typed handles; every
// subsequent Inc/Add/Set/Observe is a handful of atomic operations with no
// map lookups, no interface boxing, and no allocation. Exposition walks the
// registry under its lock, reading the same atomics, so /metrics can be
// scraped while ingestion runs.
//
// Metric names follow Prometheus conventions (snake_case, a _total suffix
// on counters, base-unit _seconds histograms). Every cloudlens series is
// prefixed "cloudlens_"; the catalog lives in DESIGN.md §7.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry. Package-level instruments across
// cloudlens register here at init, so any binary that links a subsystem
// exposes its series (at zero) from the first scrape.
var Default = NewRegistry()

// Label is one constant name="value" pair attached to an instrument at
// registration time. Labels are fixed for the instrument's lifetime —
// dynamic label values would force a map lookup per observation, which the
// hot path forbids; register one instrument per label combination instead.
type Label struct {
	Name, Value string
}

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative for Prometheus semantics.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// SetInt stores an integer value (sugar for queue depths and sizes).
func (g *Gauge) SetInt(n int) { g.Set(float64(n)) }

// Add adds x via a compare-and-swap loop; allocation-free.
func (g *Gauge) Add(x float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Bounds are inclusive upper edges
// in ascending order; an implicit +Inf bucket catches the rest. Observe is
// a linear scan over the bounds plus three atomic adds — no allocation, no
// locks — so it is safe on per-request and per-batch paths.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last slot is +Inf
	count  atomic.Int64
	sum    Gauge // atomic float64 accumulator
}

// Observe records x.
func (h *Histogram) Observe(x float64) {
	i := 0
	for i < len(h.bounds) && x > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(x)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefLatencyBuckets spans 100µs to 10s — wide enough for both sub-ms
// cached API reads and multi-second cold summaries or knowledge-base folds.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// instrument is one (label-set, handle) pair inside a family.
type instrument struct {
	labels string // rendered {a="b",c="d"} suffix, or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // callback gauges: evaluated at exposition
}

// family groups all instruments sharing a metric name; HELP/TYPE are
// emitted once per family.
type family struct {
	name, help string
	kind       kind
	bounds     []float64 // histograms: shared bucket bounds
	insts      []*instrument
	byLabels   map[string]*instrument
}

// Registry holds metric families in registration order and renders them in
// the Prometheus text exposition format. All methods are safe for
// concurrent use; instrument handles obtained from a registry stay valid
// for its lifetime.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter returns the counter registered under name and labels, creating
// it on first use. Re-registering the same (name, labels) returns the same
// handle; registering a name under a different metric kind panics, since
// that is a programming error the exposition format cannot represent.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	inst := r.instrument(name, help, counterKind, nil, labels)
	return inst.c
}

// Gauge returns the gauge registered under name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	inst := r.instrument(name, help, gaugeKind, nil, labels)
	return inst.g
}

// GaugeFunc registers a callback gauge: fn is evaluated at exposition
// time instead of pushing values through Set, the right shape for metrics
// that are derived state (snapshot age, queue depth read from elsewhere).
// fn must be safe for concurrent use. Re-registering the same (name,
// labels) replaces the callback — last one wins — so test servers that
// rebuild their handler keep the series pointed at the live source.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	inst := r.instrument(name, help, gaugeKind, nil, labels)
	r.mu.Lock()
	inst.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name and labels,
// creating it on first use with the given bucket bounds (ascending upper
// edges; +Inf is implicit). All instruments of one family share the bounds
// passed at first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	inst := r.instrument(name, help, histogramKind, bounds, labels)
	return inst.h
}

func (r *Registry) instrument(name, help string, k kind, bounds []float64, labels []Label) *instrument {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, bounds: bounds, byLabels: make(map[string]*instrument)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, k))
	}
	if inst := f.byLabels[key]; inst != nil {
		return inst
	}
	inst := &instrument{labels: key}
	switch k {
	case counterKind:
		inst.c = new(Counter)
	case gaugeKind:
		inst.g = new(Gauge)
	case histogramKind:
		inst.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
	}
	f.byLabels[key] = inst
	f.insts = append(f.insts, inst)
	return inst
}

// renderLabels renders a deterministic {a="b",c="d"} suffix. Label values
// are escaped per the exposition format (backslash, quote, newline).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// withLabel splices an extra label into an already rendered label suffix —
// used for the le="..." bucket label of histogram exposition.
func withLabel(rendered, name, value string) string {
	extra := name + `="` + value + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// WritePrometheus renders every family in the Prometheus text format
// (version 0.0.4). Values are read through the same atomics the hot paths
// write, so rendering during ingestion yields a consistent-enough snapshot
// without stalling writers.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range families {
		r.mu.Lock()
		insts := make([]*instrument, len(f.insts))
		copy(insts, f.insts)
		r.mu.Unlock()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, inst := range insts {
			switch f.kind {
			case counterKind:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, inst.labels, inst.c.Value())
			case gaugeKind:
				r.mu.Lock()
				fn := inst.fn
				r.mu.Unlock()
				v := inst.g.Value()
				if fn != nil {
					v = fn()
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, inst.labels, formatFloat(v))
			case histogramKind:
				var cum int64
				for i, bound := range f.bounds {
					cum += inst.h.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLabel(inst.labels, "le", formatFloat(bound)), cum)
				}
				cum += inst.h.counts[len(f.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLabel(inst.labels, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, inst.labels, formatFloat(inst.h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, inst.labels, inst.h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ServeHTTP makes the registry an http.Handler for GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = r.WritePrometheus(w)
}
