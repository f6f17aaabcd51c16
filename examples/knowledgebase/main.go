// Knowledge-base example: the centralized workload knowledge base the
// paper proposes in Section V. The example extracts per-subscription
// knowledge from a trace, serves it over HTTP (the integration surface for
// optimization policies running elsewhere), queries it like a remote
// client would, and demonstrates the continuous week-over-week update.
//
//	go run ./examples/knowledgebase
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"cloudlens"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tr, err := cloudlens.GenerateDefault(42)
	if err != nil {
		return err
	}
	week1 := cloudlens.ExtractKnowledgeBase(tr)
	fmt.Printf("extracted %d subscription profiles from %d VMs\n", week1.Len(), len(tr.VMs))

	// Serve the knowledge base on an ephemeral local port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           cloudlens.KnowledgeBaseHandler(week1),
		ReadHeaderTimeout: 5 * time.Second,
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("knowledge base serving on %s\n\n", base)

	// Query it as a policy engine would: find region-agnostic private
	// workloads (the Section IV-B shift candidates).
	var agnostic []cloudlens.Profile
	if err := getJSON(base+"/api/v1/profiles?cloud=private&minAgnostic=0.8", &agnostic); err != nil {
		return err
	}
	fmt.Printf("region-agnostic private subscriptions (cross-region corr >= 0.8): %d\n", len(agnostic))
	for i, p := range agnostic {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(agnostic)-5)
			break
		}
		fmt.Printf("  %-22s regions=%d score=%.2f dominant=%s mean-util=%.0f%%\n",
			p.Subscription, len(p.Regions), p.RegionAgnosticScore,
			p.DominantPattern, 100*p.MeanUtilization)
	}

	// Spot candidates: churn-heavy public subscriptions.
	var churny []cloudlens.Profile
	if err := getJSON(base+"/api/v1/profiles?cloud=public&minShortLived=0.8", &churny); err != nil {
		return err
	}
	fmt.Printf("\nspot-candidate public subscriptions (>=80%% short-lived VMs): %d\n", len(churny))

	// Continuous update: fold in the next observation window.
	week2, err := cloudlens.GenerateDefault(43)
	if err != nil {
		return err
	}
	merged := cloudlens.MergeKnowledgeBase(week1, cloudlens.ExtractKnowledgeBase(week2), cloudlens.KBMergeOptions{})
	fmt.Printf("\nafter merging a second observation week: %d profiles\n", merged.Len())

	if err := srv.Close(); err != nil {
		return err
	}
	<-done
	return nil
}

func getJSON(url string, out interface{}) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s (%s)", url, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
