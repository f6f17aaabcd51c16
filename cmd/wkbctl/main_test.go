package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cloudlens/internal/kb"
	"cloudlens/internal/policy"
	"cloudlens/internal/server"
	"cloudlens/internal/server/servertest"
	"cloudlens/internal/stream"
)

// batchServer serves servertest.Trace()'s extracted knowledge base as
// wkbserver does without -replay.
func batchServer(t *testing.T) *httptest.Server {
	t.Helper()
	store := kb.Extract(servertest.Trace(), kb.ExtractOptions{})
	srv := httptest.NewServer(server.New(store.Stamped(time.Now()), nil, nil, nil, nil))
	t.Cleanup(srv.Close)
	return srv
}

// liveServer serves a finished replay of servertest.Trace(), as wkbserver
// -replay does once the replay is done.
func liveServer(t *testing.T) *httptest.Server {
	t.Helper()
	pipe, readSrc := servertest.Live(servertest.Trace(), stream.Options{})
	pipe.Start(context.Background())
	if err := pipe.Wait(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	srv := httptest.NewServer(server.New(readSrc, pipe, nil, nil, nil))
	t.Cleanup(srv.Close)
	return srv
}

// policyServer serves the batch knowledge base with every policy enabled,
// as wkbserver -policies oversub,spot,balance does.
func policyServer(t *testing.T) (*httptest.Server, *policy.Engine) {
	t.Helper()
	tr := servertest.Trace()
	src := kb.Extract(tr, kb.ExtractOptions{}).Stamped(time.Now())
	pols, err := policy.ParseSpec("oversub,spot,balance")
	if err != nil {
		t.Fatal(err)
	}
	peng, err := policy.NewEngine(src, pols, policy.Options{TraceLevel: 1, CounterfactualK: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(src, nil, nil, peng, nil))
	t.Cleanup(srv.Close)
	return srv, peng
}

// TestSubcommandsEndToEnd runs every subcommand through run against the
// real handler: the batch ones on all three server modes, the live ones
// on a replaying server, the policy ones on a policy-enabled one. Each
// must exit nil and print its table.
func TestSubcommandsEndToEnd(t *testing.T) {
	polSrv, _ := policyServer(t)
	servers := map[string]*httptest.Server{
		"batch":  batchServer(t),
		"live":   liveServer(t),
		"policy": polSrv,
	}
	batchCases := []struct {
		args []string
		want []string
	}{
		{[]string{"summary"}, []string{"subscriptions", "region-agnostic", "private", "public"}},
		{[]string{"profiles", "-cloud", "private"}, []string{"dominant pattern", "sub-a", "1 profiles"}},
		{[]string{"profiles"}, []string{"sub-a", "sub-b", "2 profiles"}},
		{[]string{"profile", "sub-b"}, []string{`"subscription": "sub-b"`}},
		{[]string{"routes"}, []string{"method", "/api/v1/live/ingest", "/api/v1/policy/decide"}},
		{[]string{"version"}, []string{"cloudlens"}},
	}
	type tc struct {
		mode string
		args []string
		want []string
	}
	var cases []tc
	for _, mode := range []string{"batch", "live", "policy"} {
		for _, c := range batchCases {
			cases = append(cases, tc{mode, c.args, c.want})
		}
	}
	cases = append(cases,
		tc{"live", []string{"percentiles"}, []string{"pattern", "p50", "step 2016"}},
		tc{"live", []string{"regions"}, []string{"region", "dominant pattern", "r1", "2 regions"}},
		tc{"live", []string{"watch", "-count", "1"}, []string{"step 2016/2016", "replay finished"}},
		tc{"live", []string{"ingest"}, []string{"batches folded", "1 shards"}},
		tc{"policy", []string{"decide", "-policy", "oversub", "-subscription", "sub-a"}, []string{"decision 1: oversub"}},
		tc{"policy", []string{"decide", "-policy", "balance", "-subscription", "sub-a", "-regions", "r1,r2"}, []string{"decision 2: balance"}},
		tc{"policy", []string{"decisions"}, []string{"subscription", "sub-a", "2 of 2 decisions"}},
		tc{"policy", []string{"decisions", "-limit", "1"}, []string{"1 of 2 decisions", "next: -cursor "}},
		tc{"policy", []string{"counterfactual", "1"}, []string{"decision 1 (oversub)", "reproduced true", "regret"}},
	)
	for _, c := range cases {
		var out strings.Builder
		args := append([]string{"-server", servers[c.mode].URL}, c.args...)
		if err := run(args, &out); err != nil {
			t.Errorf("%s: wkbctl %s: %v", c.mode, strings.Join(c.args, " "), err)
			continue
		}
		for _, want := range c.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: wkbctl %s: output missing %q:\n%s", c.mode, strings.Join(c.args, " "), want, out.String())
			}
		}
	}
}

func TestGetJSONDecodesErrorEnvelope(t *testing.T) {
	srv := batchServer(t)

	var out struct{}
	_, err := fetch(srv.Client(), srv.URL+"/api/v1/profiles/ghost", "", nil, &out)
	if err == nil {
		t.Fatal("HTTP 404 did not return an error")
	}
	msg := err.Error()
	if msg != "profile not found (not_found, HTTP 404)" {
		t.Errorf("envelope not decoded into one-line message: %q", msg)
	}
	if strings.Contains(msg, "\n") {
		t.Errorf("error message spans lines: %q", msg)
	}
}

func TestGetJSONNonEnvelopeBodyFallsBack(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer srv.Close()

	_, err := fetch(srv.Client(), srv.URL+"/x", "", nil, &struct{}{})
	if err == nil {
		t.Fatal("HTTP 502 did not return an error")
	}
	if !strings.Contains(err.Error(), "502") || !strings.Contains(err.Error(), "bad gateway") {
		t.Errorf("fallback message lost status or body: %q", err.Error())
	}
}

// TestGetJSONSuccess decodes a 200 and returns its validator; replaying
// the validator answers 304, which leaves out as it was and keeps the tag.
func TestGetJSONSuccess(t *testing.T) {
	srv := batchServer(t)

	var v server.VersionInfo
	tag, err := fetch(srv.Client(), srv.URL+"/api/v1/version", "", nil, &v)
	if err != nil {
		t.Fatal(err)
	}
	if v.Module == "" || tag == "" {
		t.Errorf("decoded %+v with validator %q", v, tag)
	}
	var again server.VersionInfo
	tag2, err := fetch(srv.Client(), srv.URL+"/api/v1/version", tag, nil, &again)
	if err != nil {
		t.Fatal(err)
	}
	if tag2 != tag || again != (server.VersionInfo{}) {
		t.Errorf("conditional fetch: tag %q (want %q), decoded %+v (want nothing)", tag2, tag, again)
	}
}

func TestWatchStopsOnEnvelopeError(t *testing.T) {
	// A server without -replay answers 404 on the live routes; watch must
	// surface the decoded envelope instead of looping.
	srv := batchServer(t)

	var sb strings.Builder
	err := watch(srv.Client(), srv.URL, time.Millisecond, 3, &sb)
	if err == nil {
		t.Fatal("watch against a batch-only server did not error")
	}
	if !strings.Contains(err.Error(), "no live replay") {
		t.Errorf("watch error lost the envelope message: %q", err.Error())
	}
}

// TestShowRoutes renders the discovery index through the routes
// subcommand: every row the server advertises must land in the table.
func TestShowRoutes(t *testing.T) {
	srv := batchServer(t)

	var sb strings.Builder
	if err := showRoutes(srv.Client(), srv.URL, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"/api/v1/profiles", "/healthz", "cloud,minAgnostic,pattern,minShortLived,limit,cursor", "batch profile list"} {
		if !strings.Contains(out, want) {
			t.Errorf("routes table missing %q:\n%s", want, out)
		}
	}
}

func TestHelpErr(t *testing.T) {
	if helpErr(nil) != nil {
		t.Error("nil error mangled")
	}
	if helpErr(flag.ErrHelp) != nil {
		t.Error("-h must exit zero")
	}
	sentinel := errors.New("boom")
	if !errors.Is(helpErr(sentinel), sentinel) {
		t.Error("real parse errors must propagate")
	}
}
