package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cloudlens/internal/policy"
)

func TestDecidePostsAndPrints(t *testing.T) {
	srv, peng := policyServer(t)

	var out bytes.Buffer
	if err := decide(srv.Client(), srv.URL, "balance", "sub-a", 4, "r1,r2", &out); err != nil {
		t.Fatal(err)
	}
	ledger := peng.Ledger().List("")
	if len(ledger) != 1 {
		t.Fatalf("ledger holds %d decisions, want 1", len(ledger))
	}
	d := ledger[0]
	if req := d.Request; req.Policy != "balance" || req.Subscription != "sub-a" || req.Cores != 4 ||
		len(req.Regions) != 2 {
		t.Errorf("posted request = %+v", req)
	}
	for _, want := range []string{"decision 1", d.Action, fmt.Sprintf("accepted %v", d.Accepted), d.SnapshotFingerprint} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestDecideSurfacesEnvelopeError(t *testing.T) {
	srv, _ := policyServer(t)

	err := decide(srv.Client(), srv.URL, "nope", "s", 1, "", &bytes.Buffer{})
	if err == nil {
		t.Fatal("envelope error swallowed")
	}
	if !strings.Contains(err.Error(), "unknown_policy") || !strings.Contains(err.Error(), "400") {
		t.Errorf("error lost the envelope: %q", err)
	}
}

func TestShowDecisionsBareAndPaged(t *testing.T) {
	srv, peng := policyServer(t)
	for i := 0; i < 3; i++ {
		if _, err := peng.Decide(policy.Request{Policy: "spot", Subscription: "sub-b", Cores: 1}); err != nil {
			t.Fatal(err)
		}
	}

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
	for _, want := range []string{"2 of 3 decisions", "next: -cursor ", "spot", "sub-b"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("paged output missing %q:\n%s", want, out.String())
		}
	}
}

// TestShowCounterfactualRendersRegret renders an alternative the current
// snapshot no longer knows ("n/a"), which a static knowledge base never
// produces, so the server here is a fixture.
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
