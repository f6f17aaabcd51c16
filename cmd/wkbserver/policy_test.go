package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudlens/internal/kb"
	"cloudlens/internal/policy"
	"cloudlens/internal/server"
	"cloudlens/internal/server/servertest"
)

// policyServer boots a batch-mode server with the full policy set over
// the test trace's knowledge base.
func policyServer(t *testing.T) (*httptest.Server, *policy.Engine) {
	t.Helper()
	tr := servertest.Trace()
	store := kb.Extract(tr, kb.ExtractOptions{})
	pols, err := policy.ParseSpec("oversub,spot,balance")
	if err != nil {
		t.Fatal(err)
	}
	src := store.Stamped(time.Now())
	peng, err := policy.NewEngine(src, pols, policy.Options{
		TraceLevel: 1, CounterfactualK: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(src, nil, nil, peng, nil))
	t.Cleanup(srv.Close)
	return srv, peng
}

func postDecide(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/api/v1/policy/decide", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST decide: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read decide: %v", err)
	}
	return resp, b
}

func TestPolicyDecideRoundtrip(t *testing.T) {
	srv, peng := policyServer(t)

	resp, body := postDecide(t, srv, `{"policy":"oversub","subscription":"sub-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide = %d (%s)", resp.StatusCode, body)
	}
	var d policy.Decision
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("decision decode: %v", err)
	}
	if d.ID != 1 || d.Policy != "oversub" || !strings.HasPrefix(d.Action, "admit:eps=") {
		t.Errorf("decision = %+v", d)
	}
	if d.SnapshotFingerprint == "" {
		t.Error("decision lost its snapshot identity")
	}
	if peng.Ledger().Len() != 1 {
		t.Errorf("ledger has %d entries", peng.Ledger().Len())
	}

	// Malformed bodies and unknown policies answer 400 with the envelope.
	for body, wantCode := range map[string]string{
		`not json`:             "bad_request",
		`{"policy":"oversub"}`: "bad_request",
		`{"policy":"oversub","subscription":"s","x":1}`: "bad_request",
		`{"policy":"nope","subscription":"s"}`:          "unknown_policy",
	} {
		resp, b := postDecide(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("decide(%q) = %d (%s)", body, resp.StatusCode, b)
			continue
		}
		var env kb.ErrorBody
		if err := json.Unmarshal(b, &env); err != nil || env.Error.Code != wantCode {
			t.Errorf("decide(%q) code = %s, want %s", body, b, wantCode)
		}
	}

	// Oversized bodies are cut off by MaxBytesReader.
	huge := `{"policy":"oversub","subscription":"` + strings.Repeat("s", 1<<17) + `"}`
	resp, _ = postDecide(t, srv, huge)
	if resp.StatusCode == http.StatusOK {
		t.Error("oversized request accepted")
	}
}

func TestPolicyDecisionsPagination(t *testing.T) {
	srv, _ := policyServer(t)
	for i := 0; i < 25; i++ {
		pol := []string{"oversub", "spot"}[i%2]
		resp, b := postDecide(t, srv, fmt.Sprintf(`{"policy":%q,"subscription":"sub-a"}`, pol))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decide %d = %d (%s)", i, resp.StatusCode, b)
		}
	}

	// No paging parameters: the bare array.
	body := wantStatus(t, srv, "/api/v1/policy/decisions", http.StatusOK)
	var all []policy.Decision
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatalf("bare list decode: %v", err)
	}
	if len(all) != 25 {
		t.Fatalf("bare list has %d decisions", len(all))
	}

	// Policy filter narrows the list.
	body = wantStatus(t, srv, "/api/v1/policy/decisions?policy=spot", http.StatusOK)
	var spotOnly []policy.Decision
	if err := json.Unmarshal(body, &spotOnly); err != nil {
		t.Fatalf("filtered decode: %v", err)
	}
	if len(spotOnly) != 12 {
		t.Errorf("spot filter returned %d decisions, want 12", len(spotOnly))
	}
	for _, d := range spotOnly {
		if d.Policy != "spot" {
			t.Errorf("filter leaked %q decision %d", d.Policy, d.ID)
		}
	}

	// Cursor walk covers everything exactly once, in id order.
	var walked []uint64
	next := ""
	for {
		url := "/api/v1/policy/decisions?limit=7"
		if next != "" {
			url += "&cursor=" + next
		}
		body := wantStatus(t, srv, url, http.StatusOK)
		var page struct {
			Items      []policy.Decision `json:"items"`
			NextCursor string            `json:"next_cursor"`
			Total      int               `json:"total"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("page decode: %v", err)
		}
		if page.Total != 25 {
			t.Fatalf("page total = %d", page.Total)
		}
		for _, d := range page.Items {
			walked = append(walked, d.ID)
		}
		if page.NextCursor == "" {
			break
		}
		next = page.NextCursor
	}
	if len(walked) != 25 {
		t.Fatalf("walk saw %d decisions", len(walked))
	}
	for i, id := range walked {
		if id != uint64(i+1) {
			t.Fatalf("walk out of order at %d: id %d", i, id)
		}
	}

	// Strict parameter grammar.
	wantStatus(t, srv, "/api/v1/policy/decisions?nope=1", http.StatusBadRequest)
	wantStatus(t, srv, "/api/v1/policy/decisions?limit=abc", http.StatusBadRequest)
	wantStatus(t, srv, "/api/v1/policy/decisions?limit=1001", http.StatusBadRequest)
	wantStatus(t, srv, "/api/v1/policy/decisions?cursor=garbage", http.StatusBadRequest)
	wantStatus(t, srv, "/api/v1/policy/decisions?limit=1&limit=2", http.StatusBadRequest)
}

// TestPolicyPaginationUnderConcurrentDecisions hammers POST decide from
// several clients while another walks the cursor pages; the walk must
// stay duplicate-free and ordered while the ledger grows underneath it.
func TestPolicyPaginationUnderConcurrentDecisions(t *testing.T) {
	srv, peng := policyServer(t)
	const writers, perWriter = 4, 25

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				resp, err := srv.Client().Post(srv.URL+"/api/v1/policy/decide", "application/json",
					strings.NewReader(`{"policy":"oversub","subscription":"sub-a"}`))
				if err != nil {
					t.Errorf("decide: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("decide = %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// Walk pages while writes land; ids must stay strictly increasing
	// within each walk.
	for round := 0; round < 10; round++ {
		var prev uint64
		next := ""
		for {
			url := "/api/v1/policy/decisions?limit=5"
			if next != "" {
				url += "&cursor=" + next
			}
			body := wantStatus(t, srv, url, http.StatusOK)
			var page struct {
				Items      []policy.Decision `json:"items"`
				NextCursor string            `json:"next_cursor"`
			}
			if err := json.Unmarshal(body, &page); err != nil {
				t.Fatalf("page decode: %v", err)
			}
			for _, d := range page.Items {
				if d.ID <= prev {
					t.Fatalf("walk %d saw id %d after %d", round, d.ID, prev)
				}
				prev = d.ID
			}
			if page.NextCursor == "" {
				break
			}
			next = page.NextCursor
		}
	}
	wg.Wait()

	if got := peng.Ledger().Len(); got != writers*perWriter {
		t.Fatalf("ledger has %d entries, want %d", got, writers*perWriter)
	}
}

func TestPolicyCounterfactualEndpoint(t *testing.T) {
	srv, _ := policyServer(t)
	resp, b := postDecide(t, srv, `{"policy":"oversub","subscription":"sub-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide = %d (%s)", resp.StatusCode, b)
	}

	body := wantStatus(t, srv, "/api/v1/policy/decisions/1/counterfactual", http.StatusOK)
	var cf policy.Counterfactual
	if err := json.Unmarshal(body, &cf); err != nil {
		t.Fatalf("counterfactual decode: %v", err)
	}
	if cf.ID != 1 || !cf.Reproduced {
		t.Errorf("counterfactual = %+v", cf)
	}
	if cf.Regret < 0 {
		t.Errorf("negative regret %v", cf.Regret)
	}

	wantStatus(t, srv, "/api/v1/policy/decisions/999/counterfactual", http.StatusNotFound)
	wantStatus(t, srv, "/api/v1/policy/decisions/abc/counterfactual", http.StatusBadRequest)
}

// TestPolicyRoutesWithoutEngine pins the batch-mode contract: the policy
// surface stays mounted and documented, answering 404 with a hint, so
// clients can tell "no -policies" apart from transport errors.
func TestPolicyRoutesWithoutEngine(t *testing.T) {
	store := kb.Extract(servertest.Trace(), kb.ExtractOptions{})
	srv := httptest.NewServer(server.New(store.Stamped(time.Now()), nil, nil, nil, nil))
	defer srv.Close()

	for _, path := range []string{
		"/api/v1/policy/decisions",
		"/api/v1/policy/decisions/1/counterfactual",
	} {
		body := wantStatus(t, srv, path, http.StatusNotFound)
		if !bytes.Contains(body, []byte("-policies")) {
			t.Errorf("%s 404 does not hint at -policies: %s", path, body)
		}
	}
	resp, body := postDecide(t, srv, `{"policy":"oversub","subscription":"s"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("decide without engine = %d (%s)", resp.StatusCode, body)
	}
}

// TestRouteIndexCoversPolicySurface checks the new routes registered
// themselves in the machine-readable index — engine or not.
func TestRouteIndexCoversPolicySurface(t *testing.T) {
	for name, withEngine := range map[string]bool{"enabled": true, "disabled": false} {
		t.Run(name, func(t *testing.T) {
			var srv *httptest.Server
			if withEngine {
				srv, _ = policyServer(t)
			} else {
				store := kb.Extract(servertest.Trace(), kb.ExtractOptions{})
				srv = httptest.NewServer(server.New(store.Stamped(time.Now()), nil, nil, nil, nil))
				defer srv.Close()
			}
			body := wantStatus(t, srv, "/api/v1/", http.StatusOK)
			var idx server.RouteIndex
			if err := json.Unmarshal(body, &idx); err != nil {
				t.Fatalf("index decode: %v", err)
			}
			have := map[string]string{}
			for _, ri := range idx.Routes {
				have[ri.Method+" "+ri.Pattern] = ri.Doc
			}
			for _, want := range []string{
				"POST /api/v1/policy/decide",
				"GET /api/v1/policy/decisions",
				"GET /api/v1/policy/decisions/{id}/counterfactual",
			} {
				doc, ok := have[want]
				if !ok {
					t.Errorf("route index missing %s (have %v)", want, have)
					continue
				}
				if !strings.Contains(doc, "-policies") {
					t.Errorf("%s doc %q does not mention -policies", want, doc)
				}
			}
		})
	}
}

func TestHealthzCarriesPolicyVitals(t *testing.T) {
	srv, _ := policyServer(t)
	postDecide(t, srv, `{"policy":"oversub","subscription":"sub-a"}`)
	postDecide(t, srv, `{"policy":"oversub","subscription":"ghost"}`)

	body := wantStatus(t, srv, "/healthz", http.StatusOK)
	var h server.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("health decode: %v", err)
	}
	if h.Policy == nil {
		t.Fatalf("healthz without policy vitals: %s", body)
	}
	if h.Policy.Decisions != 2 || h.Policy.Accepted != 1 || h.Policy.Rejected != 1 {
		t.Errorf("policy vitals = %+v", h.Policy)
	}
	if h.Policy.SnapshotFingerprint == "" || len(h.Policy.Policies) != 3 {
		t.Errorf("policy vitals identity = %+v", h.Policy)
	}
}
