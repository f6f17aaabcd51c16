package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cloudlens/internal/server"
	"cloudlens/internal/server/servertest"
	"cloudlens/internal/stream"
)

// metricsChildShards names the environment variable that turns a re-executed
// test binary into the child of TestMetricsSeriesPinned. The metrics
// registry is process-wide, so only a fresh process shows exactly the
// series one replay registers.
const metricsChildShards = "WKBSERVER_METRICS_SERIES_SHARDS"

// TestMetricsSeriesPinned pins the set of /metrics series — name plus
// labels, histogram buckets left out — that a fresh process exposes after
// one finished replay of testTrace, at 1 and at 2 shards. Each count runs in
// its own child process; the sorted series must equal
// testdata/metrics_series_shards<N>.txt line for line.
func TestMetricsSeriesPinned(t *testing.T) {
	if s := os.Getenv(metricsChildShards); s != "" {
		shards, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("%s=%q: %v", metricsChildShards, s, err)
		}
		for _, series := range replaySeries(t, shards) {
			fmt.Println("series", series)
		}
		return
	}
	for _, shards := range []int{1, 2} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMetricsSeriesPinned$", "-test.count=1")
		cmd.Env = append(os.Environ(), metricsChildShards+"="+strconv.Itoa(shards))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("shards=%d: child: %v\n%s", shards, err, out)
		}
		var got []string
		for _, line := range strings.Split(string(out), "\n") {
			if s, ok := strings.CutPrefix(line, "series "); ok {
				got = append(got, s)
			}
		}
		path := filepath.Join("testdata", fmt.Sprintf("metrics_series_shards%d.txt", shards))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("shards=%d: /metrics series differ from %s\ngot:\n%s", shards, path, strings.Join(got, "\n"))
		}
	}
}

// replaySeries replays testTrace at the given shard count, scrapes /metrics
// once, and returns its series sorted, values and buckets stripped.
func replaySeries(t *testing.T, shards int) []string {
	t.Helper()
	pipe, readSrc := servertest.Live(servertest.Trace(), stream.Options{Shards: shards})
	pipe.Start(context.Background())
	if err := pipe.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	srv := httptest.NewServer(server.New(readSrc, pipe, nil, nil, nil))
	defer srv.Close()
	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var series []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.LastIndexByte(line, ' ')]
		if base, _, _ := strings.Cut(name, "{"); strings.HasSuffix(base, "_bucket") {
			continue
		}
		series = append(series, name)
	}
	sort.Strings(series)
	return series
}
