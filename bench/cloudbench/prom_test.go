package main

import (
	"bytes"
	"strings"
	"testing"

	"cloudlens/internal/obs"
)

// The scraper reads what the repository's own registry writes.
func TestParsePromReadsRegistryOutput(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("t_requests_total", "Requests.", obs.Label{Name: "route", Value: "/a"}, obs.Label{Name: "class", Value: "2xx"}).Add(7)
	reg.Counter("t_requests_total", "Requests.", obs.Label{Name: "route", Value: "/b"}, obs.Label{Name: "class", Value: "2xx"}).Add(5)
	reg.Counter("t_requests_total", "Requests.", obs.Label{Name: "route", Value: "/b"}, obs.Label{Name: "class", Value: "5xx"}).Add(1)
	reg.Gauge("t_depth", "A gauge with a help text that has spaces.").Set(2.5)
	h := reg.Histogram("t_seconds", "Durations.", []float64{0.01, 0.1}, obs.Label{Name: "policy", Value: "spot pool"})
	h.Observe(0.004)
	h.Observe(0.05)
	h.Observe(0.006)

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	p, err := parseProm(&b)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, b.String())
	}
	if got := p.sum("t_requests_total"); got != 13 {
		t.Errorf("sum over all series = %v, want 13", got)
	}
	if got := p.sum("t_requests_total", `route="/b"`); got != 6 {
		t.Errorf(`sum over route="/b" = %v, want 6`, got)
	}
	if got := p.sum("t_requests_total", `route="/b"`, `class="5xx"`); got != 1 {
		t.Errorf("sum over two labels = %v, want 1", got)
	}
	if got := p.sum("t_depth"); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	if got := p.sum("t_seconds_count"); got != 3 {
		t.Errorf("histogram count = %v, want 3", got)
	}
	if got, want := p.mean("t_seconds"), 0.06/3; !near(got, want) {
		t.Errorf("histogram mean = %v, want %v", got, want)
	}
	if got := p.sum("t_seconds_bucket", `le="0.01"`); got != 2 {
		t.Errorf("bucket le=0.01 = %v, want 2 (a label value with a space must not split the line)", got)
	}
	if got := p.mean("t_absent"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue\n", "name notanumber\n", "name{a=\"b\" 1\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}
