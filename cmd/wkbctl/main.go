// Command wkbctl queries a running workload knowledge base server
// (cmd/wkbserver) from the command line — the operator's view of the
// Section V system.
//
// Usage:
//
//	wkbctl -server http://localhost:8080 summary
//	wkbctl -server http://localhost:8080 profiles -cloud private -min-agnostic 0.8 [-pattern diurnal] [-min-short-lived 0.5]
//	wkbctl -server http://localhost:8080 profile <subscription-id>
//	wkbctl -server http://localhost:8080 percentiles
//	wkbctl -server http://localhost:8080 regions
//	wkbctl -server http://localhost:8080 watch [-interval 2s] [-count 0]
//	wkbctl -server http://localhost:8080 ingest
//	wkbctl -server http://localhost:8080 routes
//	wkbctl -server http://localhost:8080 version
//	wkbctl -server http://localhost:8080 decide -policy oversub -subscription sub-001 [-cores 4] [-regions r1,r2]
//	wkbctl -server http://localhost:8080 decisions [-policy oversub] [-limit 100] [-cursor ...]
//	wkbctl -server http://localhost:8080 counterfactual <decision-id>
//
// percentiles and regions read the live aggregation endpoints (wkbserver
// -replay): per-pattern utilization bands and per-region rollups.
//
// watch follows a live replay (wkbserver -replay), printing one progress
// line per poll until the replay finishes; -count bounds the number of
// polls (0 means until done). Summary polls are conditional requests: the
// client replays the last ETag via If-None-Match, and a 304 reuses the
// previous payload instead of re-fetching an unchanged snapshot.
//
// ingest prints the columnar hot-path vitals of a live replay: per shard,
// the column batches folded, the free-list ledger (columns reused versus
// freshly allocated), the mean column fill ratio, and the reorder-ring
// occupancy.
//
// decide, decisions, and counterfactual talk to the online policy engine
// (wkbserver -policies): decide posts one placement/admission request,
// decisions pages through the ledger (with -limit/-cursor it decodes the
// {items,next_cursor,total} envelope and prints the next cursor), and
// counterfactual prints the regret replay for one ledger entry.
//
// Every HTTP status ≥ 400 exits non-zero; the server's JSON error envelope
// ({"error":{"code","message"}}) is decoded into a one-line stderr
// message.
//
// Global flags come before the subcommand; filter flags after it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"cloudlens"
	"cloudlens/internal/kb"
	"cloudlens/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wkbctl:", err)
		os.Exit(1)
	}
}

func run() error {
	server := flag.String("server", "http://localhost:8080", "knowledge base server base URL")
	flag.Parse()
	client := &http.Client{Timeout: 10 * time.Second}

	switch flag.Arg(0) {
	case "summary":
		return showSummary(client, *server)
	case "profiles":
		// Filter flags follow the subcommand.
		fs := flag.NewFlagSet("profiles", flag.ContinueOnError)
		var (
			cloud         = fs.String("cloud", "", "filter profiles by cloud: private | public")
			minAgnostic   = fs.Float64("min-agnostic", -2, "minimum region-agnostic score")
			pattern       = fs.String("pattern", "", "filter by dominant pattern")
			minShortLived = fs.Float64("min-short-lived", 0, "minimum short-lived VM share")
		)
		if err := fs.Parse(flag.Args()[1:]); err != nil {
			return helpErr(err)
		}
		return showProfiles(client, *server, *cloud, *minAgnostic, *pattern, *minShortLived)
	case "profile":
		if flag.Arg(1) == "" {
			return fmt.Errorf("profile requires a subscription id")
		}
		return showProfile(client, *server, flag.Arg(1))
	case "percentiles":
		return showPercentiles(client, *server, os.Stdout)
	case "regions":
		return showRegions(client, *server, os.Stdout)
	case "watch":
		fs := flag.NewFlagSet("watch", flag.ContinueOnError)
		var (
			interval = fs.Duration("interval", 2*time.Second, "poll interval")
			count    = fs.Int("count", 0, "stop after this many polls (0 = until the replay finishes)")
		)
		if err := fs.Parse(flag.Args()[1:]); err != nil {
			return helpErr(err)
		}
		return watch(client, *server, *interval, *count, os.Stdout)
	case "ingest":
		return showIngest(client, *server, os.Stdout)
	case "routes":
		return showRoutes(client, *server, os.Stdout)
	case "version":
		return showVersion(client, *server)
	case "decide":
		fs := flag.NewFlagSet("decide", flag.ContinueOnError)
		var (
			pol     = fs.String("policy", "", "policy to consult (required)")
			sub     = fs.String("subscription", "", "workload subscription id (required)")
			cores   = fs.Int("cores", 0, "ask size in cores (0 = server default of 1)")
			regions = fs.String("regions", "", "comma-separated candidate regions (balance)")
		)
		if err := fs.Parse(flag.Args()[1:]); err != nil {
			return helpErr(err)
		}
		if *pol == "" || *sub == "" {
			return fmt.Errorf("decide requires -policy and -subscription")
		}
		return decide(client, *server, *pol, *sub, *cores, *regions, os.Stdout)
	case "decisions":
		fs := flag.NewFlagSet("decisions", flag.ContinueOnError)
		var (
			pol    = fs.String("policy", "", "restrict to one policy's decisions")
			limit  = fs.Int("limit", 0, "page size; any paging flag switches to the cursor envelope")
			cursor = fs.String("cursor", "", "resume from a previous page's next cursor")
		)
		if err := fs.Parse(flag.Args()[1:]); err != nil {
			return helpErr(err)
		}
		return showDecisions(client, *server, *pol, *limit, *cursor, os.Stdout)
	case "counterfactual":
		if flag.Arg(1) == "" {
			return fmt.Errorf("counterfactual requires a decision id")
		}
		return showCounterfactual(client, *server, flag.Arg(1), os.Stdout)
	default:
		return fmt.Errorf("unknown command %q (want summary | profiles | profile | percentiles | regions | watch | ingest | routes | version | decide | decisions | counterfactual)", flag.Arg(0))
	}
}

// helpErr keeps -h/-help on subcommand flag sets exiting zero (the usage
// text was already printed); every real parse error still propagates to a
// non-zero exit.
func helpErr(err error) error {
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return err
}

// getJSON fetches rawURL and decodes the body into out. Any status ≥ 400
// is an error: the server's JSON envelope becomes a one-line message
// ("profile not found (not_found, HTTP 404)"); a non-envelope body — an
// older server, a proxy error page — falls back to quoting the trimmed
// body so the operator still sees what the wire carried.
func getJSON(client *http.Client, rawURL string, out interface{}) error {
	resp, err := client.Get(rawURL)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		var env kb.ErrorBody
		if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
			return fmt.Errorf("%s (%s, HTTP %d)", env.Error.Message, env.Error.Code, resp.StatusCode)
		}
		return fmt.Errorf("GET %s: %s: %s", rawURL, resp.Status, bytes.TrimSpace(body))
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: unexpected status %s", rawURL, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// getJSONCond is getJSON with cache validation: a non-empty etag is sent
// as If-None-Match, and a 304 answer reports notModified without decoding
// (the caller reuses its previous payload). The returned tag is whatever
// validator the response carried — replay it on the next call.
func getJSONCond(client *http.Client, rawURL, etag string, out interface{}) (newTag string, notModified bool, err error) {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return "", false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	newTag = resp.Header.Get("ETag")
	if resp.StatusCode == http.StatusNotModified {
		return newTag, true, nil
	}
	if resp.StatusCode >= 400 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		var env kb.ErrorBody
		if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
			return "", false, fmt.Errorf("%s (%s, HTTP %d)", env.Error.Message, env.Error.Code, resp.StatusCode)
		}
		return "", false, fmt.Errorf("GET %s: %s: %s", rawURL, resp.Status, bytes.TrimSpace(body))
	}
	if resp.StatusCode != http.StatusOK {
		return "", false, fmt.Errorf("GET %s: unexpected status %s", rawURL, resp.Status)
	}
	return newTag, false, json.NewDecoder(resp.Body).Decode(out)
}

// showPercentiles prints the live per-pattern utilization bands.
func showPercentiles(client *http.Client, server string, w io.Writer) error {
	var rep cloudlens.LivePercentiles
	if err := getJSON(client, server+"/api/v1/live/percentiles", &rep); err != nil {
		return err
	}
	t := report.NewTable("pattern", "subscriptions", "samples",
		"p10", "p25", "p50", "p75", "p90", "p95", "p99")
	for _, b := range rep.Patterns {
		t.AddRow(b.Pattern.String(),
			strconv.Itoa(b.Subscriptions),
			strconv.FormatInt(b.Samples, 10),
			report.Pct(b.P10), report.Pct(b.P25), report.Pct(b.P50),
			report.Pct(b.P75), report.Pct(b.P90), report.Pct(b.P95),
			report.Pct(b.P99))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "step %d\n", rep.Step)
	return nil
}

// showRegions prints the live per-region rollups.
func showRegions(client *http.Client, server string, w io.Writer) error {
	var rolls []cloudlens.RegionRollup
	if err := getJSON(client, server+"/api/v1/live/regions", &rolls); err != nil {
		return err
	}
	t := report.NewTable("region", "subscriptions", "multi-region", "agnostic",
		"VMs observed", "snapshot cores", "mean util", "dominant pattern")
	for _, rr := range rolls {
		t.AddRow(rr.Region,
			strconv.Itoa(rr.Subscriptions),
			strconv.Itoa(rr.MultiRegionSubs),
			strconv.Itoa(rr.RegionAgnosticSubs),
			strconv.Itoa(rr.VMsObserved),
			strconv.Itoa(rr.SnapshotCores),
			report.Pct(rr.MeanUtilization),
			rr.DominantPattern.String())
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d regions\n", len(rolls))
	return nil
}

// ingestReport mirrors the /api/v1/live/ingest payload.
type ingestReport struct {
	Shards []cloudlens.StreamIngestVital `json:"shards"`
}

// showIngest prints the columnar hot-path vitals, one row per ingestion
// shard. The reuse column is the free-list hit rate — on a healthy
// steady-state replay it approaches 100% while "allocated" stays frozen
// at the warm-up count (see DESIGN.md §14).
func showIngest(client *http.Client, server string, w io.Writer) error {
	var rep ingestReport
	if err := getJSON(client, server+"/api/v1/live/ingest", &rep); err != nil {
		return err
	}
	t := report.NewTable("shard", "batches folded", "column samples", "fill",
		"ring", "allocated", "reused", "dropped", "watermark")
	var folded, samples int64
	for _, v := range rep.Shards {
		t.AddRow(strconv.Itoa(v.Shard),
			strconv.FormatInt(v.BatchesFolded, 10),
			strconv.FormatInt(v.ColumnSamples, 10),
			report.Pct(v.FillRatio),
			fmt.Sprintf("%d/%d", v.RingOccupancy, v.RingSlots),
			strconv.FormatInt(v.Pool.Allocated, 10),
			strconv.FormatInt(v.Pool.Reused, 10),
			strconv.FormatInt(v.Pool.Dropped, 10),
			strconv.Itoa(v.Watermark))
		folded += v.BatchesFolded
		samples += v.ColumnSamples
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d shards, %d column batches folded, %d samples\n",
		len(rep.Shards), folded, samples)
	return nil
}

// showVersion prints the server build info from /api/v1/version.
func showVersion(client *http.Client, server string) error {
	var v kb.VersionInfo
	if err := getJSON(client, server+"/api/v1/version", &v); err != nil {
		return err
	}
	fmt.Printf("%s %s", v.Module, v.Version)
	if v.Revision != "" {
		rev := v.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Printf(" (%s", rev)
		if v.Modified {
			fmt.Print("-dirty")
		}
		fmt.Print(")")
	}
	if v.GoVersion != "" {
		fmt.Printf(" %s", v.GoVersion)
	}
	fmt.Println()
	return nil
}

// showRoutes prints the server's machine-readable route index — the
// discovery entry point of the v1 API.
func showRoutes(client *http.Client, server string, w io.Writer) error {
	var idx kb.RouteIndex
	if err := getJSON(client, server+"/api/v1/", &idx); err != nil {
		return err
	}
	t := report.NewTable("method", "pattern", "params", "description")
	for _, ri := range idx.Routes {
		params := make([]string, 0, len(ri.Params))
		for _, p := range ri.Params {
			params = append(params, p.Name)
		}
		t.AddRow(ri.Method, ri.Pattern, strings.Join(params, ","), ri.Doc)
	}
	return t.Render(w)
}

func showSummary(client *http.Client, server string) error {
	var out map[string]struct {
		Subscriptions     int                `json:"subscriptions"`
		VMsObserved       int                `json:"vmsObserved"`
		SnapshotCores     int                `json:"snapshotCores"`
		MeanUtilization   float64            `json:"meanUtilization"`
		PatternShares     map[string]float64 `json:"patternShares"`
		RegionAgnostic    int                `json:"regionAgnostic"`
		MultiRegion       int                `json:"multiRegion"`
		MedianLifetimeMin float64            `json:"medianLifetimeMin"`
	}
	if err := getJSON(client, server+"/api/v1/summary", &out); err != nil {
		return err
	}
	t := report.NewTable("cloud", "subscriptions", "VMs observed", "snapshot cores",
		"mean util", "multi-region", "region-agnostic")
	for _, cloud := range []string{"private", "public"} {
		s := out[cloud]
		t.AddRow(cloud,
			strconv.Itoa(s.Subscriptions),
			strconv.Itoa(s.VMsObserved),
			strconv.Itoa(s.SnapshotCores),
			report.Pct(s.MeanUtilization),
			strconv.Itoa(s.MultiRegion),
			strconv.Itoa(s.RegionAgnostic))
	}
	return t.Render(os.Stdout)
}

func showProfiles(client *http.Client, server, cloud string, minAgnostic float64, pattern string, minShortLived float64) error {
	q := url.Values{}
	if cloud != "" {
		q.Set("cloud", cloud)
	}
	if minAgnostic > -2 {
		q.Set("minAgnostic", strconv.FormatFloat(minAgnostic, 'f', -1, 64))
	}
	if pattern != "" {
		q.Set("pattern", pattern)
	}
	if minShortLived > 0 {
		q.Set("minShortLived", strconv.FormatFloat(minShortLived, 'f', -1, 64))
	}
	var profiles []cloudlens.Profile
	rawURL := server + "/api/v1/profiles"
	if enc := q.Encode(); enc != "" {
		rawURL += "?" + enc
	}
	if err := getJSON(client, rawURL, &profiles); err != nil {
		return err
	}
	t := report.NewTable("subscription", "cloud", "regions", "snapshot cores",
		"dominant pattern", "agnostic score", "short-lived")
	for _, p := range profiles {
		t.AddRow(string(p.Subscription),
			p.Cloud.String(),
			strconv.Itoa(len(p.Regions)),
			strconv.Itoa(p.SnapshotCores),
			p.DominantPattern.String(),
			fmt.Sprintf("%.2f", p.RegionAgnosticScore),
			report.Pct(p.ShortLivedShare))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("%d profiles\n", len(profiles))
	return nil
}

// postJSON posts body to rawURL and decodes the response like getJSON,
// including the error-envelope handling.
func postJSON(client *http.Client, rawURL string, body, out interface{}) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(rawURL, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		var env kb.ErrorBody
		if json.Unmarshal(raw, &env) == nil && env.Error.Message != "" {
			return fmt.Errorf("%s (%s, HTTP %d)", env.Error.Message, env.Error.Code, resp.StatusCode)
		}
		return fmt.Errorf("POST %s: %s: %s", rawURL, resp.Status, bytes.TrimSpace(raw))
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: unexpected status %s", rawURL, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decide posts one placement/admission request and prints the resulting
// ledger entry.
func decide(client *http.Client, server, pol, sub string, cores int, regions string, w io.Writer) error {
	req := cloudlens.PolicyRequest{
		Policy:       pol,
		Subscription: cloudlens.SubscriptionID(sub),
		Cores:        cores,
	}
	if regions != "" {
		req.Regions = strings.Split(regions, ",")
	}
	var d cloudlens.PolicyDecision
	if err := postJSON(client, server+"/api/v1/policy/decide", req, &d); err != nil {
		return err
	}
	fmt.Fprintf(w, "decision %d: %s -> %s (score %.4f, accepted %v, snapshot step %d %s)\n",
		d.ID, d.Policy, d.Action, d.Score, d.Accepted, d.SnapshotStep, d.SnapshotFingerprint)
	for _, a := range d.Alternatives {
		fmt.Fprintf(w, "  rejected %-24s score %.4f  %s\n", a.Action, a.Score, a.Note)
	}
	return nil
}

// decisionPage mirrors the kb.ListPage envelope with typed items.
type decisionPage struct {
	Items      []cloudlens.PolicyDecision `json:"items"`
	NextCursor string                     `json:"next_cursor"`
	Total      int                        `json:"total"`
}

// showDecisions lists the ledger; with -limit or -cursor it walks the
// paginated envelope and prints the next cursor for the following page.
func showDecisions(client *http.Client, server, pol string, limit int, cursor string, w io.Writer) error {
	q := url.Values{}
	if pol != "" {
		q.Set("policy", pol)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	rawURL := server + "/api/v1/policy/decisions"
	if enc := q.Encode(); enc != "" {
		rawURL += "?" + enc
	}
	var (
		items      []cloudlens.PolicyDecision
		nextCursor string
		total      int
	)
	if limit > 0 || cursor != "" {
		var page decisionPage
		if err := getJSON(client, rawURL, &page); err != nil {
			return err
		}
		items, nextCursor, total = page.Items, page.NextCursor, page.Total
	} else {
		if err := getJSON(client, rawURL, &items); err != nil {
			return err
		}
		total = len(items)
	}
	t := report.NewTable("id", "policy", "subscription", "action", "score", "accepted", "snapshot")
	for _, d := range items {
		t.AddRow(strconv.FormatUint(d.ID, 10),
			d.Policy,
			string(d.Request.Subscription),
			d.Action,
			fmt.Sprintf("%.4f", d.Score),
			strconv.FormatBool(d.Accepted),
			strconv.Itoa(d.SnapshotStep))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d of %d decisions\n", len(items), total)
	if nextCursor != "" {
		fmt.Fprintf(w, "next: -cursor %s\n", nextCursor)
	}
	return nil
}

// showCounterfactual prints the regret replay for one ledger entry.
func showCounterfactual(client *http.Client, server, id string, w io.Writer) error {
	var cf cloudlens.PolicyCounterfactual
	if err := getJSON(client, server+"/api/v1/policy/decisions/"+url.PathEscape(id)+"/counterfactual", &cf); err != nil {
		return err
	}
	fmt.Fprintf(w, "decision %d (%s): chose %s, original score %.4f, replay %.4f (reproduced %v)\n",
		cf.ID, cf.Policy, cf.Action, cf.OriginalScore, cf.ReplayScore, cf.Reproduced)
	fmt.Fprintf(w, "snapshot then: step %d %s\n", cf.SnapshotStep, cf.SnapshotFingerprint)
	fmt.Fprintf(w, "snapshot now:  step %d %s (chosen action now scores %.4f)\n",
		cf.CurrentStep, cf.CurrentFingerprint, cf.ChosenCurrentScore)
	t := report.NewTable("alternative", "replay score", "current score", "regret")
	for _, a := range cf.Alternatives {
		cur := "n/a"
		if a.CurrentKnown {
			cur = fmt.Sprintf("%.4f", a.CurrentScore)
		}
		t.AddRow(a.Action, fmt.Sprintf("%.4f", a.ReplayScore), cur, fmt.Sprintf("%.4f", a.Regret))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "regret %.4f\n", cf.Regret)
	return nil
}

func showProfile(client *http.Client, server, id string) error {
	var p cloudlens.Profile
	if err := getJSON(client, server+"/api/v1/profiles/"+url.PathEscape(id), &p); err != nil {
		return err
	}
	var data bytes.Buffer
	if err := json.Indent(&data, kb.AppendProfileJSON(nil, &p), "", "  "); err != nil {
		return err
	}
	fmt.Println(data.String())
	return nil
}
