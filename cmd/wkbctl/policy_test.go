package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cloudlens/internal/kb"
	"cloudlens/internal/policy"
)

func TestDecidePostsAndPrints(t *testing.T) {
	var gotBody []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/api/v1/policy/decide" {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
		}
		gotBody = make([]byte, r.ContentLength)
		r.Body.Read(gotBody)
		json.NewEncoder(w).Encode(policy.Decision{
			ID: 7, Policy: "oversub", Action: "admit:eps=0.01", Score: 1.5,
			Accepted: true, SnapshotStep: 2016, SnapshotFingerprint: "fnv1a:abc",
		})
	}))
	defer srv.Close()

	var out bytes.Buffer
	if err := decide(srv.Client(), srv.URL, "oversub", "sub-a", 4, "r1,r2", &out); err != nil {
		t.Fatal(err)
	}
	var req policy.Request
	if err := json.Unmarshal(gotBody, &req); err != nil {
		t.Fatalf("posted body: %v (%s)", err, gotBody)
	}
	if req.Policy != "oversub" || req.Subscription != "sub-a" || req.Cores != 4 ||
		len(req.Regions) != 2 {
		t.Errorf("posted request = %+v", req)
	}
	for _, want := range []string{"decision 7", "admit:eps=0.01", "accepted true", "fnv1a:abc"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestDecideSurfacesEnvelopeError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kb.WriteError(w, http.StatusBadRequest, "unknown_policy", `unknown policy "nope"`)
	}))
	defer srv.Close()

	err := decide(srv.Client(), srv.URL, "nope", "s", 1, "", &bytes.Buffer{})
	if err == nil {
		t.Fatal("envelope error swallowed")
	}
	if !strings.Contains(err.Error(), "unknown_policy") || !strings.Contains(err.Error(), "400") {
		t.Errorf("error lost the envelope: %q", err)
	}
}

func TestShowDecisionsBareAndPaged(t *testing.T) {
	mk := func(id uint64) policy.Decision {
		return policy.Decision{
			ID: id, Policy: "spot", Action: "admit-spot", Score: 0.4, Accepted: true,
			Request: policy.Request{Subscription: "sub-b"}, SnapshotStep: 12,
		}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("limit") != "" {
			json.NewEncoder(w).Encode(decisionPage{
				Items:      []policy.Decision{mk(1), mk(2)},
				NextCursor: "tok123",
				Total:      5,
			})
			return
		}
		json.NewEncoder(w).Encode([]policy.Decision{mk(1), mk(2), mk(3)})
	}))
	defer srv.Close()

	// Bare array without paging flags.
	var out bytes.Buffer
	if err := showDecisions(srv.Client(), srv.URL, "", 0, "", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3 of 3 decisions") || strings.Contains(out.String(), "next:") {
		t.Errorf("bare listing output:\n%s", out.String())
	}

	// Paged envelope with -limit; the next cursor is surfaced.
	out.Reset()
	if err := showDecisions(srv.Client(), srv.URL, "spot", 2, "", &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 of 5 decisions", "next: -cursor tok123", "admit-spot", "sub-b"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("paged output missing %q:\n%s", want, out.String())
		}
	}
}

func TestShowCounterfactualRendersRegret(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/policy/decisions/3/counterfactual" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		json.NewEncoder(w).Encode(policy.Counterfactual{
			ID: 3, Policy: "oversub", Action: "admit:eps=0.01",
			OriginalScore: 1.5, ReplayScore: 1.5, Reproduced: true,
			SnapshotStep: 100, SnapshotFingerprint: "fnv1a:old",
			CurrentStep: 200, CurrentFingerprint: "fnv1a:new",
			ChosenCurrentScore: 1.4,
			Alternatives: []policy.CounterfactualAlt{
				{Action: "admit:eps=0.05", ReplayScore: 1.2, CurrentScore: 1.6, CurrentKnown: true, Regret: 0.2},
				{Action: "reject", ReplayScore: 0, CurrentKnown: false},
			},
			Regret: 0.2,
		})
	}))
	defer srv.Close()

	var out bytes.Buffer
	if err := showCounterfactual(srv.Client(), srv.URL, "3", &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"reproduced true", "fnv1a:old", "fnv1a:new", "n/a", "regret 0.2000",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("counterfactual output missing %q:\n%s", want, out.String())
		}
	}
}
