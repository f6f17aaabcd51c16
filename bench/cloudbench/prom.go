package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one series of a Prometheus text exposition: the metric
// name, its rendered label set ("" when unlabelled) and the value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// promScrape is a parsed exposition, as obs.Registry.WritePrometheus
// renders it (text format 0.0.4: HELP/TYPE comments, one series a line).
type promScrape []promSample

// parseProm reads an exposition. Comment and blank lines are skipped; a
// line that is not "name[{labels}] value" is an error.
func parseProm(r io.Reader) (promScrape, error) {
	var out promScrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in %q: %w", line, err)
		}
		series := line[:cut]
		s := promSample{name: series, value: v}
		if open := strings.IndexByte(series, '{'); open >= 0 {
			if !strings.HasSuffix(series, "}") {
				return nil, fmt.Errorf("prom: unterminated labels in %q", line)
			}
			s.name, s.labels = series[:open], series[open:]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds up every series of the metric whose label set contains each
// of the given `key="value"` fragments (none: every series).
func (p promScrape) sum(name string, having ...string) float64 {
	var total float64
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for _, h := range having {
			if !strings.Contains(s.labels, h) {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// mean is a histogram's mean observation (sum over count across the
// matching series), 0 when nothing was observed.
func (p promScrape) mean(name string, having ...string) float64 {
	n := p.sum(name+"_count", having...)
	if n == 0 {
		return 0
	}
	return p.sum(name+"_sum", having...) / n
}
