package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudlens"
	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/sim"
	"cloudlens/internal/usage"
)

// testTrace is a compact hand-built week exercising both clouds and every
// route's data dependencies (multi-region spread, qualified and short
// lived VMs).
func testTrace() *cloudlens.Trace {
	g := sim.WeekGrid()
	mk := func(id int, sub string, cloud core.Cloud, region string,
		created, deleted int, u usage.Params) cloudlens.VM {
		return cloudlens.VM{
			ID:           core.VMID(id),
			Subscription: core.SubscriptionID(sub),
			Service:      "svc",
			Cloud:        cloud,
			Region:       region,
			Size:         core.VMSize{Cores: 4, MemoryGB: 16},
			CreatedStep:  created,
			DeletedStep:  deleted,
			Usage:        u,
		}
	}
	n := g.N
	return &cloudlens.Trace{
		Grid: g,
		VMs: []cloudlens.VM{
			mk(0, "sub-a", core.Private, "r1", -10, n+1, usage.Diurnal(0.3, 0.25, 14*60, 1)),
			mk(1, "sub-a", core.Private, "r2", 0, n, usage.Diurnal(0.3, 0.25, 14*60, 2)),
			mk(2, "sub-a", core.Private, "r1", 100, 120, usage.Stable(0.5, 3)),
			mk(3, "sub-b", core.Public, "r1", 0, n+5, usage.Stable(0.2, 4)),
			mk(4, "sub-b", core.Public, "r1", 500, 900, usage.Irregular(0.4, 5)),
		},
	}
}

// livePipeline mirrors run()'s replay wiring: the read source observes
// folds from before the first batch and is bound to the engine before the
// pipeline starts, so no fold can race the binding.
func livePipeline(tr *cloudlens.Trace, opts cloudlens.StreamOptions) (*cloudlens.StreamPipeline, *cloudlens.StreamReadSource) {
	readSrc := cloudlens.NewStreamReadSource(time.Now)
	opts.FoldObserver = readSrc
	pipe := cloudlens.NewStreamPipeline(tr, opts)
	readSrc.Bind(pipe.Engine())
	return pipe, readSrc
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp, body
}

func wantStatus(t *testing.T, srv *httptest.Server, path string, status int) []byte {
	t.Helper()
	resp, body := get(t, srv, path)
	if resp.StatusCode != status {
		t.Errorf("GET %s = %d, want %d (%s)", path, resp.StatusCode, status, body)
	}
	if status >= 400 {
		assertEnvelope(t, path, body, status)
	}
	return body
}

// assertEnvelope checks the uniform {"error":{"code","message"}} body every
// v1 error response must carry.
func assertEnvelope(t *testing.T, path string, body []byte, status int) {
	t.Helper()
	var env kb.ErrorBody
	if err := json.Unmarshal(body, &env); err != nil {
		t.Errorf("%s: %d body is not the JSON envelope: %s", path, status, body)
		return
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Errorf("%s: envelope incomplete: %s", path, body)
	}
	wantCodes := map[int][]string{
		// Bad requests carry the strict-grammar code family.
		http.StatusBadRequest:       {"bad_param", "bad_cursor", "unknown_param", "bad_request"},
		http.StatusNotFound:         {"not_found"},
		http.StatusMethodNotAllowed: {"method_not_allowed"},
	}[status]
	if len(wantCodes) > 0 {
		ok := false
		for _, c := range wantCodes {
			ok = ok || env.Error.Code == c
		}
		if !ok {
			t.Errorf("%s: envelope code = %q, want one of %v", path, env.Error.Code, wantCodes)
		}
	}
}

func TestBatchHandlerRoutes(t *testing.T) {
	tr := testTrace()
	store := cloudlens.ExtractKnowledgeBase(tr)
	srv := httptest.NewServer(buildHandler(store, nil, nil, nil, nil, nil))
	defer srv.Close()

	body := wantStatus(t, srv, "/healthz", http.StatusOK)
	var health kb.Health
	if err := json.Unmarshal(body, &health); err != nil || health.Status != "ok" {
		t.Errorf("healthz body = %s (err %v)", body, err)
	}

	body = wantStatus(t, srv, "/api/v1/summary", http.StatusOK)
	var sum map[string]json.RawMessage
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("summary decode: %v", err)
	}
	for _, cloud := range []string{"private", "public"} {
		if _, ok := sum[cloud]; !ok {
			t.Errorf("summary missing %q", cloud)
		}
	}

	body = wantStatus(t, srv, "/api/v1/profiles?cloud=private", http.StatusOK)
	var profiles []cloudlens.Profile
	if err := json.Unmarshal(body, &profiles); err != nil {
		t.Fatalf("profiles decode: %v", err)
	}
	if len(profiles) != 1 || profiles[0].Subscription != "sub-a" {
		t.Errorf("private profiles = %+v, want just sub-a", profiles)
	}

	wantStatus(t, srv, "/api/v1/profiles/sub-b", http.StatusOK)
	wantStatus(t, srv, "/api/v1/profiles/nope", http.StatusNotFound)

	// Bad query parameters answer 400, each with the offending name.
	for _, path := range []string{
		"/api/v1/profiles?cloud=martian",
		"/api/v1/profiles?minAgnostic=abc",
		"/api/v1/profiles?minShortLived=x",
		"/api/v1/profiles?pattern=sawtooth",
	} {
		wantStatus(t, srv, path, http.StatusBadRequest)
	}

	// Without -replay every live route reports not found.
	wantStatus(t, srv, "/api/v1/live/status", http.StatusNotFound)
	wantStatus(t, srv, "/api/v1/live/summary", http.StatusNotFound)
	wantStatus(t, srv, "/api/v1/live/faults", http.StatusNotFound)

	// Unknown paths and wrong methods carry the envelope too.
	wantStatus(t, srv, "/api/v1/nope", http.StatusNotFound)
	resp, err := srv.Client().Post(srv.URL+"/api/v1/summary", "application/json", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST summary = %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Allow") == "" {
		t.Error("405 lost the Allow header")
	}
	assertEnvelope(t, "POST /api/v1/summary", body, http.StatusMethodNotAllowed)

	body = wantStatus(t, srv, "/api/v1/version", http.StatusOK)
	var ver kb.VersionInfo
	if err := json.Unmarshal(body, &ver); err != nil || ver.Module == "" {
		t.Errorf("version body = %s (err %v)", body, err)
	}
}

func TestLiveHandlerRoutes(t *testing.T) {
	tr := testTrace()
	pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{})
	pipe.Start(context.Background())
	if err := pipe.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	srv := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil))
	defer srv.Close()

	body := wantStatus(t, srv, "/api/v1/live/status", http.StatusOK)
	var st cloudlens.StreamStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	if !st.Done || st.Step != tr.Grid.N || st.SamplesIngested == 0 {
		t.Errorf("status = %+v, want finished replay", st)
	}

	body = wantStatus(t, srv, "/api/v1/live/summary", http.StatusOK)
	var sum cloudlens.LiveSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("summary decode: %v", err)
	}
	if cl, ok := sum.Clouds["private"]; !ok || cl.Subscriptions != 1 || cl.UtilP50 <= 0 {
		t.Errorf("live summary private = %+v", sum.Clouds["private"])
	}

	body = wantStatus(t, srv, "/api/v1/live/profiles?cloud=public", http.StatusOK)
	var lps []cloudlens.LiveProfile
	if err := json.Unmarshal(body, &lps); err != nil {
		t.Fatalf("live profiles decode: %v", err)
	}
	if len(lps) != 1 || lps[0].Subscription != "sub-b" || lps[0].Samples == 0 {
		t.Errorf("live public profiles = %+v, want sub-b with samples", lps)
	}

	wantStatus(t, srv, "/api/v1/live/profiles?pattern=sawtooth", http.StatusBadRequest)
	wantStatus(t, srv, "/api/v1/live/profiles/sub-a", http.StatusOK)
	wantStatus(t, srv, "/api/v1/live/profiles/nope", http.StatusNotFound)
	wantStatus(t, srv, "/api/v1/live/bogus", http.StatusNotFound)

	resp, err := srv.Client().Post(srv.URL+"/api/v1/live/summary", "application/json", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	postBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST live summary = %d, want 405", resp.StatusCode)
	}
	assertEnvelope(t, "POST /api/v1/live/summary", postBody, http.StatusMethodNotAllowed)

	// A finished replay reports ready.
	body = wantStatus(t, srv, "/healthz", http.StatusOK)
	var health kb.Health
	if err := json.Unmarshal(body, &health); err != nil || health.Status != "ok" {
		t.Errorf("healthz after replay = %s (err %v)", body, err)
	}
	if health.Step != tr.Grid.N || health.Steps != tr.Grid.N {
		t.Errorf("healthz steps = %+v, want %d/%d", health, tr.Grid.N, tr.Grid.N)
	}
}

// TestMetricsExposition scrapes /metrics after a replay and checks the
// Prometheus surface: parseable text format covering the HTTP, stream,
// pool, cache, and knowledge-base subsystems.
func TestMetricsExposition(t *testing.T) {
	tr := testTrace()
	pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{})
	pipe.Start(context.Background())
	if err := pipe.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	srv := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil))
	defer srv.Close()

	// One API request first so the middleware series have data.
	wantStatus(t, srv, "/api/v1/summary", http.StatusOK)

	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}

	families := make(map[string]bool)
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(name)[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}

	want := []string{
		"cloudlens_http_requests_total",
		"cloudlens_http_request_duration_seconds",
		"cloudlens_http_inflight_requests",
		"cloudlens_stream_samples_total",
		"cloudlens_stream_steps_total",
		"cloudlens_stream_backpressure_stalls_total",
		"cloudlens_stream_channel_occupancy",
		"cloudlens_stream_fold_duration_seconds",
		"cloudlens_stream_classified_total",
		"cloudlens_pool_dispatches_total",
		"cloudlens_pool_tasks_total",
		"cloudlens_pool_inflight_dispatches",
		"cloudlens_seriescache_hits_total",
		"cloudlens_seriescache_misses_total",
		"cloudlens_kb_profile_puts_total",
		"cloudlens_kb_profiles",
	}
	for _, f := range want {
		if !families[f] {
			t.Errorf("metric family %s missing from /metrics", f)
		}
	}
	if len(families) < 12 {
		t.Errorf("only %d families exposed, want >= 12", len(families))
	}

	// Counters that a finished replay must have moved. Values are process-
	// cumulative, so only lower bounds are meaningful here.
	if v := samples["cloudlens_stream_samples_total"]; v < float64(pipe.Status().SamplesIngested) {
		t.Errorf("stream samples counter %v below this replay's %d", v, pipe.Status().SamplesIngested)
	}
	if samples["cloudlens_kb_profile_puts_total"] == 0 {
		t.Error("kb puts counter never moved")
	}
	if samples[`cloudlens_http_requests_total{class="2xx",route="/api/v1/summary"}`] < 1 {
		t.Error("per-route status-class counter never moved")
	}
}

// TestLiveEndpointsDuringIngestion hammers the live API — including the
// /metrics scrape path, which walks every registered series — while the
// replay is still running; under -race (make verify) this demonstrates the
// snapshot and exposition paths are free of data races with ingestion.
func TestLiveEndpointsDuringIngestion(t *testing.T) {
	tr := testTrace()
	pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{FoldEverySteps: 12})
	srv := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil))
	defer srv.Close()
	pipe.Start(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{
				"/api/v1/live/status",
				"/api/v1/live/summary",
				"/api/v1/live/profiles",
				"/api/v1/live/profiles?limit=2",
				"/api/v1/live/profiles/sub-a",
				"/api/v1/live/faults",
				"/api/v1/",
				"/api/v1/summary",
				"/metrics",
				"/healthz",
			}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := srv.Client().Get(srv.URL + paths[n%len(paths)])
				if err != nil {
					t.Errorf("GET during ingestion: %v", err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	if err := pipe.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	close(stop)
	wg.Wait()

	// After the replay completes the readiness contract flips to ok.
	body := wantStatus(t, srv, "/healthz", http.StatusOK)
	var health kb.Health
	if err := json.Unmarshal(body, &health); err != nil || health.Status != "ok" {
		t.Errorf("healthz after ingestion = %s (err %v)", body, err)
	}
}

// pageEnvelope mirrors the kb.ListPage wire shape with typed items.
type pageEnvelope struct {
	Items      []cloudlens.LiveProfile `json:"items"`
	NextCursor string                  `json:"next_cursor"`
	Total      int                     `json:"total"`
}

// TestLivePaginationDuringIngestion walks the paginated live listing over
// and over while the replay is still folding profiles in. Every walk must
// return strictly increasing subscription keys with no duplicates — the
// keyset-cursor guarantee that makes pagination safe against a moving
// knowledge base.
func TestLivePaginationDuringIngestion(t *testing.T) {
	g := sim.WeekGrid()
	var vms []cloudlens.VM
	for i := 0; i < 26; i++ {
		vms = append(vms, cloudlens.VM{
			ID:           core.VMID(i),
			Subscription: core.SubscriptionID("sub-" + string(rune('a'+i))),
			Service:      "svc",
			Cloud:        core.Private,
			Region:       "r1",
			Size:         core.VMSize{Cores: 2, MemoryGB: 8},
			CreatedStep:  0,
			DeletedStep:  g.N,
			Usage:        usage.Stable(0.5, uint64(i+1)),
		})
	}
	tr := &cloudlens.Trace{Grid: g, VMs: vms}
	pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{FoldEverySteps: 12})
	srv := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil))
	defer srv.Close()
	pipe.Start(context.Background())

	walk := func() []cloudlens.LiveProfile {
		var out []cloudlens.LiveProfile
		cursor := ""
		for {
			u := "/api/v1/live/profiles?limit=5"
			if cursor != "" {
				u += "&cursor=" + cursor
			}
			resp, body := get(t, srv, u)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d (%s)", u, resp.StatusCode, body)
			}
			var page pageEnvelope
			if err := json.Unmarshal(body, &page); err != nil {
				t.Fatalf("decode page: %v (%s)", err, body)
			}
			if len(page.Items) > 5 {
				t.Fatalf("page of %d items exceeds limit 5", len(page.Items))
			}
			out = append(out, page.Items...)
			if page.NextCursor == "" {
				return out
			}
			cursor = page.NextCursor
		}
	}

	done := make(chan error, 1)
	go func() { done <- pipe.Wait() }()
	for {
		profiles := walk()
		for i := 1; i < len(profiles); i++ {
			if profiles[i].Subscription <= profiles[i-1].Subscription {
				t.Fatalf("walk not strictly increasing: %s after %s",
					profiles[i].Subscription, profiles[i-1].Subscription)
			}
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			// One final walk over the finished knowledge base must see
			// every subscription.
			if final := walk(); len(final) != len(vms) {
				t.Fatalf("final walk saw %d profiles, want %d", len(final), len(vms))
			}
			return
		default:
		}
	}
}

// TestLiveFaultsEndpoint replays with fault injection enabled and checks
// the fault surface: /api/v1/live/faults reconciles the injector's ledger
// with the ingestor's counters, and /healthz carries the same vitals.
func TestLiveFaultsEndpoint(t *testing.T) {
	tr := testTrace()
	spec, err := cloudlens.ParseFaultSpec("drop=0.01,dup=0.01,delay=0.01:3,corrupt=0.005,seed=9")
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	var inj *cloudlens.FaultInjector
	pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{
		WrapSource: spec.Wrap(tr.Grid.N, 0, &inj),
	})
	pipe.Start(context.Background())
	if err := pipe.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	srv := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, inj, nil, nil))
	defer srv.Close()

	body := wantStatus(t, srv, "/api/v1/live/faults", http.StatusOK)
	var rep FaultsReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("faults decode: %v (%s)", err, body)
	}
	if rep.Injected == nil || rep.Injected.Total() == 0 {
		t.Fatalf("faults report has no injector ledger: %s", body)
	}
	if rep.FaultSpec == "" {
		t.Error("faults report does not echo the active spec")
	}
	if rep.Stream.DuplicatesDropped != rep.Injected.Duplicated ||
		rep.Stream.Reordered != rep.Injected.Delayed ||
		rep.Stream.QuarantinedCorrupt != rep.Injected.Corrupted {
		t.Errorf("ledgers do not reconcile: stream %+v vs injected %+v", rep.Stream, *rep.Injected)
	}

	body = wantStatus(t, srv, "/healthz", http.StatusOK)
	var health kb.Health
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if health.Quarantined != rep.Stream.QuarantinedCorrupt+rep.Stream.QuarantinedLate {
		t.Errorf("healthz quarantined %d, want %d", health.Quarantined,
			rep.Stream.QuarantinedCorrupt+rep.Stream.QuarantinedLate)
	}
	if health.DuplicatesDropped != rep.Stream.DuplicatesDropped {
		t.Errorf("healthz duplicates %d, want %d", health.DuplicatesDropped, rep.Stream.DuplicatesDropped)
	}

	// Batch mode has no fault surface: enveloped 404, like every live route.
	batch := httptest.NewServer(buildHandler(pipe.KB(), nil, nil, nil, nil, nil))
	defer batch.Close()
	wantStatus(t, batch, "/api/v1/live/faults", http.StatusNotFound)
}

// TestRouteIndexCoversLiveSurface checks that the discovery index served
// at /api/v1/ documents the whole unified surface, batch and live.
func TestRouteIndexCoversLiveSurface(t *testing.T) {
	tr := testTrace()
	pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{})
	pipe.Start(context.Background())
	if err := pipe.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	srv := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil))
	defer srv.Close()

	body := wantStatus(t, srv, "/api/v1/", http.StatusOK)
	var idx kb.RouteIndex
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("index decode: %v", err)
	}
	have := map[string]bool{}
	for _, ri := range idx.Routes {
		have[ri.Pattern] = true
	}
	for _, want := range []string{
		"/healthz", "/metrics", "/api/v1/", "/api/v1/version", "/api/v1/summary",
		"/api/v1/profiles", "/api/v1/profiles/{id}",
		"/api/v1/live/status", "/api/v1/live/summary", "/api/v1/live/percentiles",
		"/api/v1/live/regions", "/api/v1/live/profiles",
		"/api/v1/live/profiles/{id}", "/api/v1/live/faults",
	} {
		if !have[want] {
			t.Errorf("route index missing %s", want)
		}
	}
}

// TestCheckpointResumeFlow drives the server-side checkpoint helpers end
// to end: boot fresh (no checkpoint), save mid-replay, then boot again
// with -resume semantics and finish; the resumed run must land on the
// same knowledge base as an uninterrupted one.
func TestCheckpointResumeFlow(t *testing.T) {
	tr := testTrace()
	dir := t.TempDir()
	path := checkpointPath(dir)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	opts := cloudlens.StreamOptions{FoldEverySteps: 12}

	// Reference: uninterrupted replay.
	ref := cloudlens.NewStreamPipeline(tr, opts)
	ref.Start(context.Background())
	if err := ref.Wait(); err != nil {
		t.Fatalf("reference replay: %v", err)
	}

	// First boot: -resume with an empty dir starts from step 0.
	first, err := startPipeline(tr, opts, path, true, logger)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first.Start(ctx)
	// Kill mid-replay, then checkpoint what was reached (the shutdown
	// path's order: Stop, then SaveCheckpoint).
	for first.Status().Step < 400 {
	}
	cancel()
	first.Stop()
	info, err := first.SaveCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if info.Step < 0 || info.Path != path {
		t.Fatalf("checkpoint info = %+v", info)
	}

	// Second boot resumes past the checkpointed step and finishes.
	second, err := startPipeline(tr, opts, path, true, logger)
	if err != nil {
		t.Fatalf("second boot: %v", err)
	}
	second.Start(context.Background())
	if err := second.Wait(); err != nil {
		t.Fatalf("resumed replay: %v", err)
	}
	if got, want := second.Status().Step, tr.Grid.N; got != want {
		t.Fatalf("resumed replay stopped at %d, want %d", got, want)
	}

	wantProfiles := ref.KB().List(kb.Query{MinRegionAgnosticScore: -2})
	gotProfiles := second.KB().List(kb.Query{MinRegionAgnosticScore: -2})
	if len(gotProfiles) != len(wantProfiles) {
		t.Fatalf("resumed kb has %d profiles, want %d", len(gotProfiles), len(wantProfiles))
	}
	for i := range wantProfiles {
		g, _ := json.Marshal(gotProfiles[i])
		w, _ := json.Marshal(wantProfiles[i])
		if string(g) != string(w) {
			t.Errorf("profile %s diverged after resume:\n%s\n%s",
				wantProfiles[i].Subscription, g, w)
		}
	}
}

// TestServerlessEndToEnd drives the serverless family down the full
// operational path the CPU family already owns: generate the preset,
// replay it on its one-minute grid under a fault mix, kill the replay
// mid-flight, resume from the checkpoint, and read the finished state
// back over /api/v1/live/*.
func TestServerlessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day replay; skipped in -short mode")
	}
	cfg := cloudlens.DefaultServerlessConfig(5)
	cfg.Apps = 8
	tr, err := cloudlens.GenerateServerless(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	spec, err := cloudlens.ParseFaultSpec("drop=0.01,dup=0.005,delay=0.01:3,corrupt=0.002,seed=5")
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	dir := t.TempDir()
	path := checkpointPath(dir)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	// First boot: replay under faults, kill mid-flight, checkpoint.
	var killedInj *cloudlens.FaultInjector
	first, err := startPipeline(tr, cloudlens.StreamOptions{
		WrapSource: spec.Wrap(tr.Grid.N, 0, &killedInj),
	}, path, true, logger)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first.Start(ctx)
	for first.Status().Step < 400 {
	}
	cancel()
	first.Stop()
	if _, err := first.SaveCheckpoint(path); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Second boot resumes past the checkpoint and finishes, with the read
	// source wired exactly as run() wires it.
	var inj *cloudlens.FaultInjector
	readSrc := cloudlens.NewStreamReadSource(time.Now)
	second, err := startPipeline(tr, cloudlens.StreamOptions{
		WrapSource:   spec.Wrap(tr.Grid.N, 0, &inj),
		FoldObserver: readSrc,
	}, path, true, logger)
	if err != nil {
		t.Fatalf("second boot: %v", err)
	}
	readSrc.Bind(second.Engine())
	second.Start(context.Background())
	if err := second.Wait(); err != nil {
		t.Fatalf("resumed replay: %v", err)
	}

	srv := httptest.NewServer(buildHandler(second.KB(), second, readSrc, inj, nil, nil))
	defer srv.Close()

	// The live status names the family and shows a completed replay.
	body := wantStatus(t, srv, "/api/v1/live/status", http.StatusOK)
	var st struct {
		Done   bool   `json:"done"`
		Family string `json:"family"`
		Step   int    `json:"step"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status decode: %v (%s)", err, body)
	}
	if st.Family != "serverless" {
		t.Errorf("live status family = %q, want serverless", st.Family)
	}
	if !st.Done || st.Step != tr.Grid.N {
		t.Errorf("live status = %+v, want done at step %d", st, tr.Grid.N)
	}

	// Every live profile carries the family tag, and every classified one
	// stays inside the serverless taxonomy.
	body = wantStatus(t, srv, "/api/v1/live/profiles?limit=100", http.StatusOK)
	var page pageEnvelope
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("profiles decode: %v (%s)", err, body)
	}
	if len(page.Items) == 0 {
		t.Fatal("no live profiles after the serverless replay")
	}
	for _, p := range page.Items {
		if p.Family != core.FamilyServerless {
			t.Errorf("profile %s family = %s, want serverless", p.Subscription, p.Family)
		}
		if p.DominantPattern != core.PatternUnknown && !core.FamilyServerless.Has(p.DominantPattern) {
			t.Errorf("profile %s pattern %s outside the serverless taxonomy",
				p.Subscription, p.DominantPattern)
		}
	}

	// The fault surface stayed live across the resume. The stream's books
	// are cumulative (the checkpoint carries the first boot's counters)
	// while the injector ledger covers only the resumed run, so the stream
	// side must be at least the resumed injector's ledger.
	body = wantStatus(t, srv, "/api/v1/live/faults", http.StatusOK)
	var rep FaultsReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("faults decode: %v (%s)", err, body)
	}
	if rep.Injected == nil || rep.Injected.Total() == 0 {
		t.Fatalf("resumed serverless replay injected no faults: %s", body)
	}
	if rep.Stream.DuplicatesDropped < rep.Injected.Duplicated ||
		rep.Stream.QuarantinedCorrupt < rep.Injected.Corrupted {
		t.Errorf("checkpointed books lost faults: stream %+v vs resumed injector %+v",
			rep.Stream, *rep.Injected)
	}
}

// TestHealthzReportsIngesting pins the readiness contract: while a replay
// is filling the knowledge base /healthz says "ingesting", so a load
// balancer (or wkbctl watch) can hold traffic until the state is complete.
func TestHealthzReportsIngesting(t *testing.T) {
	tr := testTrace()
	// A paced replay (tiny speedup) stays mid-flight long enough to observe.
	pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{Speedup: 1})
	srv := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	pipe.Start(ctx)
	body := wantStatus(t, srv, "/healthz", http.StatusOK)
	var health kb.Health
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz decode: %v (%s)", err, body)
	}
	if health.Status != "ingesting" {
		t.Errorf("healthz during replay = %q, want ingesting", health.Status)
	}
	if health.Steps != tr.Grid.N {
		t.Errorf("healthz steps = %d, want %d", health.Steps, tr.Grid.N)
	}
	cancel()
	pipe.Stop()
}

// TestShardedHealthAndFaults runs a replay at 1 and at 2 shards and checks
// the operational surface breaks the vitals out per shard at every shard
// count: /healthz carries a shards array whose per-shard sample counts sum
// to the status total, and /api/v1/live/faults carries the matching
// per-shard ledgers. The per-shard figures are read without a barrier, so
// the exact sums are checked only after Wait, when Finish has quiesced
// every shard.
func TestShardedHealthAndFaults(t *testing.T) {
	tr := testTrace()
	for _, shards := range []int{1, 2} {
		pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{Shards: shards})
		pipe.Start(context.Background())
		if err := pipe.Wait(); err != nil {
			t.Fatalf("shards=%d: replay: %v", shards, err)
		}
		srv := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil))

		body := wantStatus(t, srv, "/healthz", http.StatusOK)
		var health kb.Health
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatalf("shards=%d: healthz decode: %v (%s)", shards, err, body)
		}
		if len(health.Shards) != shards {
			t.Fatalf("shards=%d: healthz shards = %+v, want %d entries", shards, health.Shards, shards)
		}
		var ingested int64
		for i, sh := range health.Shards {
			if sh.Shard != i {
				t.Errorf("shards=%d: healthz shard[%d].Shard = %d", shards, i, sh.Shard)
			}
			if sh.Step != tr.Grid.N {
				t.Errorf("shards=%d: healthz shard[%d].Step = %d, want %d", shards, i, sh.Step, tr.Grid.N)
			}
			ingested += sh.SamplesIngested
		}
		if want := pipe.Status().SamplesIngested; ingested != want {
			t.Errorf("shards=%d: healthz per-shard samples sum to %d, status reports %d", shards, ingested, want)
		}

		body = wantStatus(t, srv, "/api/v1/live/faults", http.StatusOK)
		var rep FaultsReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("shards=%d: faults decode: %v (%s)", shards, err, body)
		}
		if len(rep.Shards) != shards {
			t.Fatalf("shards=%d: faults shards = %+v, want %d entries", shards, rep.Shards, shards)
		}
		var dups int64
		for _, sv := range rep.Shards {
			dups += sv.Faults.DuplicatesDropped
		}
		if dups != rep.Stream.DuplicatesDropped {
			t.Errorf("shards=%d: per-shard duplicates sum to %d, aggregate reports %d", shards, dups, rep.Stream.DuplicatesDropped)
		}
		srv.Close()
	}
}

// TestReadHammerDuringIngestion drives the whole snapshot read surface
// concurrently against a full-speed replay: paginated walks that restart
// when the snapshot flips underneath them, conditional GETs replaying
// cached validators, and aggregation reads. The invariants: no request
// ever sees a 5xx, a walk completed under one ETag is duplicate-free and
// ordered, and a 200 to a conditional GET always carries a different
// validator than the one it was conditioned on.
func TestReadHammerDuringIngestion(t *testing.T) {
	g := sim.WeekGrid()
	var vms []cloudlens.VM
	for i := 0; i < 18; i++ {
		vms = append(vms, cloudlens.VM{
			ID:           core.VMID(i),
			Subscription: core.SubscriptionID("sub-" + string(rune('a'+i))),
			Service:      "svc",
			Cloud:        core.Private,
			Region:       "r" + strconv.Itoa(i%3+1),
			Size:         core.VMSize{Cores: 2, MemoryGB: 8},
			CreatedStep:  0,
			DeletedStep:  g.N,
			Usage:        usage.Stable(0.5, uint64(i+1)),
		})
	}
	tr := &cloudlens.Trace{Grid: g, VMs: vms}
	pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{FoldEverySteps: 6})
	srv := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil))
	defer srv.Close()
	client := srv.Client()

	fetch := func(path, inm string) (*http.Response, []byte, error) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			return nil, nil, err
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp, body, err
	}

	pipe.Start(context.Background())
	replayDone := make(chan struct{})
	go func() {
		if err := pipe.Wait(); err != nil {
			t.Errorf("replay: %v", err)
		}
		close(replayDone)
	}()

	stopped := func() bool {
		select {
		case <-replayDone:
			return true
		default:
			return false
		}
	}

	var wg sync.WaitGroup
	// Conditional readers: replay the last validator; 304 means current,
	// 200 must re-validate under a new ETag.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			etag := ""
			for !stopped() {
				resp, _, err := fetch("/api/v1/live/summary", etag)
				if err != nil {
					t.Errorf("conditional GET: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					next := resp.Header.Get("ETag")
					if next == "" {
						t.Error("200 without an ETag")
						return
					}
					if etag != "" && next == etag {
						t.Errorf("200 re-served the validator it was conditioned on: %s", etag)
						return
					}
					etag = next
				case http.StatusNotModified:
					// Current; keep the validator.
				default:
					t.Errorf("conditional GET = %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// Paginated walkers: a walk is only judged if every page carried the
	// same ETag (one snapshot); flips mid-walk restart it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			var subs []core.SubscriptionID
			etag, cursor, ok := "", "", true
			for {
				u := "/api/v1/live/profiles?limit=3"
				if cursor != "" {
					u += "&cursor=" + cursor
				}
				resp, body, err := fetch(u, "")
				if err != nil {
					t.Errorf("walk GET: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("walk GET %s = %d (%s)", u, resp.StatusCode, body)
					return
				}
				tag := resp.Header.Get("ETag")
				if etag == "" {
					etag = tag
				} else if tag != etag {
					ok = false // snapshot flipped mid-walk; try again
					break
				}
				var page pageEnvelope
				if err := json.Unmarshal(body, &page); err != nil {
					t.Errorf("walk decode: %v (%s)", err, body)
					return
				}
				for _, p := range page.Items {
					subs = append(subs, p.Subscription)
				}
				if page.NextCursor == "" {
					break
				}
				cursor = page.NextCursor
			}
			if !ok {
				continue
			}
			for i := 1; i < len(subs); i++ {
				if subs[i] <= subs[i-1] {
					t.Errorf("single-snapshot walk out of order or duplicated: %s then %s", subs[i-1], subs[i])
					return
				}
			}
		}
	}()

	// Aggregation readers: every payload decodes and no read ever errors.
	wg.Add(1)
	go func() {
		defer wg.Done()
		paths := []string{"/api/v1/live/summary", "/api/v1/live/percentiles", "/api/v1/live/regions", "/api/v1/summary"}
		for i := 0; !stopped(); i++ {
			path := paths[i%len(paths)]
			resp, body, err := fetch(path, "")
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s = %d (%s)", path, resp.StatusCode, body)
				return
			}
			if !json.Valid(body) {
				t.Errorf("GET %s: invalid JSON (%s)", path, body)
				return
			}
		}
	}()

	wg.Wait()

	// Settled: the validator flow must converge — a fresh GET's ETag
	// answers 304 on replay and a stale one refetches in full.
	resp, _, err := fetch("/api/v1/live/summary", "")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("final GET = %v %v", resp, err)
	}
	etag := resp.Header.Get("ETag")
	if resp, _, err = fetch("/api/v1/live/summary", etag); err != nil || resp.StatusCode != http.StatusNotModified {
		t.Errorf("replayed validator: %v %v, want 304", resp.StatusCode, err)
	}
	if resp, _, err = fetch("/api/v1/live/summary", `"fnv1a:0000000000000000"`); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("stale validator: %v %v, want 200", resp.StatusCode, err)
	}
}

// TestLiveGzipGoldens pins content negotiation on the live snapshot-class
// reads: for each pre-encoded aggregation endpoint, the gzip entity is
// byte-identical across repeats (compressed once per snapshot, memoized),
// decompresses to exactly the identity body, and shares the identity
// representation's validator — so conditional requests answer 304 for
// either coding, Vary: Accept-Encoding attached throughout.
func TestLiveGzipGoldens(t *testing.T) {
	tr := testTrace()
	pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{})
	pipe.Start(context.Background())
	if err := pipe.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	srv := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil))
	defer srv.Close()

	fetch := func(path, acceptEncoding, inm string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		// Explicit Accept-Encoding disables the transport's transparent
		// decompression, so the test observes the wire bytes.
		req.Header.Set("Accept-Encoding", acceptEncoding)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	for _, path := range []string{
		"/api/v1/live/summary",
		"/api/v1/live/percentiles",
		"/api/v1/live/regions",
		"/api/v1/summary",
	} {
		respID, plain := fetch(path, "identity", "")
		if respID.StatusCode != http.StatusOK || respID.Header.Get("Content-Encoding") != "" {
			t.Fatalf("%s identity: %d, Content-Encoding %q", path, respID.StatusCode, respID.Header.Get("Content-Encoding"))
		}
		resp1, gz1 := fetch(path, "gzip", "")
		_, gz2 := fetch(path, "gzip", "")
		if resp1.StatusCode != http.StatusOK || resp1.Header.Get("Content-Encoding") != "gzip" {
			t.Fatalf("%s gzip: %d, Content-Encoding %q", path, resp1.StatusCode, resp1.Header.Get("Content-Encoding"))
		}
		if !bytes.Equal(gz1, gz2) {
			t.Errorf("%s: repeated gzip GETs differ", path)
		}
		zr, err := gzip.NewReader(bytes.NewReader(gz1))
		if err != nil {
			t.Fatalf("%s: gzip body does not decode: %v", path, err)
		}
		inflated, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: gzip body truncated: %v", path, err)
		}
		if !bytes.Equal(inflated, plain) {
			t.Errorf("%s: gzip entity does not decompress to the identity body", path)
		}
		etag := respID.Header.Get("ETag")
		if etag == "" || resp1.Header.Get("ETag") != etag {
			t.Fatalf("%s: ETags differ across codings: %q vs %q", path, etag, resp1.Header.Get("ETag"))
		}
		for _, enc := range []string{"identity", "gzip"} {
			resp, body := fetch(path, enc, etag)
			if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
				t.Errorf("%s: %s conditional GET = %d (%d bytes), want empty 304", path, enc, resp.StatusCode, len(body))
			}
			if resp.Header.Get("Vary") != "Accept-Encoding" {
				t.Errorf("%s: %s 304 lost Vary", path, enc)
			}
		}
	}
}

// TestLiveIngestVitals exercises /api/v1/live/ingest after replays with
// and without sharding: one vitals entry per shard, the columnar fold
// counters populated, and the free-list ledger conserving its buffers
// (returned ≤ allocated + reused, nothing dropped on a well-sized pool).
func TestLiveIngestVitals(t *testing.T) {
	for _, shards := range []int{0, 2} {
		tr := testTrace()
		pipe, readSrc := livePipeline(tr, cloudlens.StreamOptions{Shards: shards})
		pipe.Start(context.Background())
		if err := pipe.Wait(); err != nil {
			t.Fatalf("shards=%d replay: %v", shards, err)
		}
		srv := httptest.NewServer(buildHandler(pipe.KB(), pipe, readSrc, nil, nil, nil))

		body := wantStatus(t, srv, "/api/v1/live/ingest", http.StatusOK)
		var rep IngestReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("shards=%d ingest decode: %v", shards, err)
		}
		want := shards
		if want == 0 {
			want = 1
		}
		if len(rep.Shards) != want {
			t.Fatalf("shards=%d: %d vitals entries, want %d", shards, len(rep.Shards), want)
		}
		for i, v := range rep.Shards {
			if v.Shard != i {
				t.Errorf("shards=%d: entry %d reports shard %d", shards, i, v.Shard)
			}
			if v.BatchesFolded == 0 || v.ColumnSamples == 0 {
				t.Errorf("shards=%d shard %d: no columnar folds recorded: %+v", shards, i, v)
			}
			if v.FillRatio <= 0 || v.FillRatio > 1 {
				t.Errorf("shards=%d shard %d: fill ratio %v out of (0,1]", shards, i, v.FillRatio)
			}
			if v.Watermark < tr.Grid.N {
				t.Errorf("shards=%d shard %d: watermark %d behind a drained replay (N=%d)", shards, i, v.Watermark, tr.Grid.N)
			}
			p := v.Pool
			if p.Allocated+p.Reused == 0 {
				t.Errorf("shards=%d shard %d: pool ledger empty: %+v", shards, i, p)
			}
			if p.Returned > p.Allocated+p.Reused {
				t.Errorf("shards=%d shard %d: pool returned more than it served: %+v", shards, i, p)
			}
			// Drops are legitimate only while the active set grows (an
			// under-sized pooled buffer is discarded for a larger one);
			// this trace grows twice, so drops stay far below the reuse
			// count on any healthy pool.
			if p.Dropped > p.Reused/10 {
				t.Errorf("shards=%d shard %d: pool churning: %+v", shards, i, p)
			}
		}

		// The route self-registers in the index under cache class "none".
		idxBody := wantStatus(t, srv, "/api/v1/", http.StatusOK)
		var idx kb.RouteIndex
		if err := json.Unmarshal(idxBody, &idx); err != nil {
			t.Fatalf("route index decode: %v", err)
		}
		found := false
		for _, ri := range idx.Routes {
			if ri.Pattern == "/api/v1/live/ingest" {
				found = true
				if ri.Cache != kb.CacheNone {
					t.Errorf("ingest route cache class %q, want %q", ri.Cache, kb.CacheNone)
				}
			}
		}
		if !found {
			t.Error("route index does not list /api/v1/live/ingest")
		}
		srv.Close()
	}
}

// TestPublicServerClosesIdleConnections holds the public listener to its
// timeouts: both are set, and a keep-alive connection left idle after a
// response is closed by the server rather than held open. The idle window
// is shortened here so the test does not wait out the production one.
func TestPublicServerClosesIdleConnections(t *testing.T) {
	srv := publicServer("127.0.0.1:0", buildHandler(cloudlens.ExtractKnowledgeBase(testTrace()), nil, nil, nil, nil, nil))
	if srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("timeouts: read-header %v, write %v, idle %v; all must be set",
			srv.ReadHeaderTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	srv.IdleTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: wkbserver\r\n\r\n"); err != nil {
		t.Fatalf("write request: %v", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("status %d, close %v; want a kept-alive 200", resp.StatusCode, resp.Close)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	if n, err := br.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection: read %d bytes, err %v; want the server to close it (EOF)", n, err)
	}
	t.Logf("server closed the idle connection after %v", time.Since(start).Round(time.Millisecond))
}
