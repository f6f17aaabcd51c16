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

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
	"cloudlens/internal/policy"
	"cloudlens/internal/report"
	"cloudlens/internal/server"
	"cloudlens/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wkbctl:", err)
		os.Exit(1)
	}
}

// run parses args (global flags, the subcommand, its flags) and writes the
// subcommand's output to stdout.
func run(args []string, stdout io.Writer) error {
	global := flag.NewFlagSet("wkbctl", flag.ContinueOnError)
	base := global.String("server", "http://localhost:8080", "knowledge base server base URL")
	if err := global.Parse(args); err != nil {
		return helpErr(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}

	switch global.Arg(0) {
	case "summary":
		return showSummary(client, *base, stdout)
	case "profiles":
		// Filter flags follow the subcommand.
		fs := flag.NewFlagSet("profiles", flag.ContinueOnError)
		var (
			cloud         = fs.String("cloud", "", "filter profiles by cloud: private | public")
			minAgnostic   = fs.Float64("min-agnostic", -2, "minimum region-agnostic score")
			pattern       = fs.String("pattern", "", "filter by dominant pattern")
			minShortLived = fs.Float64("min-short-lived", 0, "minimum short-lived VM share")
		)
		if err := fs.Parse(global.Args()[1:]); err != nil {
			return helpErr(err)
		}
		return showProfiles(client, *base, *cloud, *minAgnostic, *pattern, *minShortLived, stdout)
	case "profile":
		if global.Arg(1) == "" {
			return fmt.Errorf("profile requires a subscription id")
		}
		return showProfile(client, *base, global.Arg(1), stdout)
	case "percentiles":
		return showPercentiles(client, *base, stdout)
	case "regions":
		return showRegions(client, *base, stdout)
	case "watch":
		fs := flag.NewFlagSet("watch", flag.ContinueOnError)
		var (
			interval = fs.Duration("interval", 2*time.Second, "poll interval")
			count    = fs.Int("count", 0, "stop after this many polls (0 = until the replay finishes)")
		)
		if err := fs.Parse(global.Args()[1:]); err != nil {
			return helpErr(err)
		}
		return watch(client, *base, *interval, *count, stdout)
	case "ingest":
		return showIngest(client, *base, stdout)
	case "routes":
		return showRoutes(client, *base, stdout)
	case "version":
		return showVersion(client, *base, stdout)
	case "decide":
		fs := flag.NewFlagSet("decide", flag.ContinueOnError)
		var (
			pol     = fs.String("policy", "", "policy to consult (required)")
			sub     = fs.String("subscription", "", "workload subscription id (required)")
			cores   = fs.Int("cores", 0, "ask size in cores (0 = server default of 1)")
			regions = fs.String("regions", "", "comma-separated candidate regions (balance)")
		)
		if err := fs.Parse(global.Args()[1:]); err != nil {
			return helpErr(err)
		}
		if *pol == "" || *sub == "" {
			return fmt.Errorf("decide requires -policy and -subscription")
		}
		return decide(client, *base, *pol, *sub, *cores, *regions, stdout)
	case "decisions":
		fs := flag.NewFlagSet("decisions", flag.ContinueOnError)
		var (
			pol    = fs.String("policy", "", "restrict to one policy's decisions")
			limit  = fs.Int("limit", 0, "page size; any paging flag switches to the cursor envelope")
			cursor = fs.String("cursor", "", "resume from a previous page's next cursor")
		)
		if err := fs.Parse(global.Args()[1:]); err != nil {
			return helpErr(err)
		}
		return showDecisions(client, *base, *pol, *limit, *cursor, stdout)
	case "counterfactual":
		if global.Arg(1) == "" {
			return fmt.Errorf("counterfactual requires a decision id")
		}
		return showCounterfactual(client, *base, global.Arg(1), stdout)
	default:
		return fmt.Errorf("unknown command %q (want summary | profiles | profile | percentiles | regions | watch | ingest | routes | version | decide | decisions | counterfactual)", global.Arg(0))
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

// fetch sends one request and decodes a 200 JSON answer into out. in, when
// non-nil, is posted as the JSON body; otherwise the request is a GET. A
// non-empty etag is sent as If-None-Match, and a 304 answer leaves out as
// it was (the caller reuses its previous payload). fetch returns the
// validator to replay on the next call.
//
// Any status ≥ 400 is an error: the server's JSON envelope becomes a
// one-line message ("profile not found (not_found, HTTP 404)"); a
// non-envelope body — an older server, a proxy error page — falls back to
// quoting the trimmed body so the operator still sees what the wire
// carried.
func fetch(client *http.Client, rawURL, etag string, in, out interface{}) (string, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return "", err
		}
		method, body = http.MethodPost, bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, rawURL, body)
	if err != nil {
		return "", err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	tag := resp.Header.Get("ETag")
	switch {
	case resp.StatusCode == http.StatusNotModified:
		if tag == "" {
			tag = etag
		}
		return tag, nil
	case resp.StatusCode >= 400:
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		var env kb.ErrorBody
		if json.Unmarshal(raw, &env) == nil && env.Error.Message != "" {
			return "", fmt.Errorf("%s (%s, HTTP %d)", env.Error.Message, env.Error.Code, resp.StatusCode)
		}
		return "", fmt.Errorf("%s %s: %s: %s", method, rawURL, resp.Status, bytes.TrimSpace(raw))
	case resp.StatusCode != http.StatusOK:
		return "", fmt.Errorf("%s %s: unexpected status %s", method, rawURL, resp.Status)
	}
	return tag, json.NewDecoder(resp.Body).Decode(out)
}

// showPercentiles prints the live per-pattern utilization bands.
func showPercentiles(client *http.Client, base string, w io.Writer) error {
	var rep stream.PercentilesReport
	if _, err := fetch(client, base+"/api/v1/live/percentiles", "", nil, &rep); err != nil {
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
func showRegions(client *http.Client, base string, w io.Writer) error {
	var rolls []kb.RegionRollup
	if _, err := fetch(client, base+"/api/v1/live/regions", "", nil, &rolls); err != nil {
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

// showIngest prints the columnar hot-path vitals, one row per ingestion
// shard. The reuse column is the free-list hit rate — on a healthy
// steady-state replay it approaches 100% while "allocated" stays frozen
// at the warm-up count (see DESIGN.md §14).
func showIngest(client *http.Client, base string, w io.Writer) error {
	var rep server.IngestReport
	if _, err := fetch(client, base+"/api/v1/live/ingest", "", nil, &rep); err != nil {
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
func showVersion(client *http.Client, base string, w io.Writer) error {
	var v server.VersionInfo
	if _, err := fetch(client, base+"/api/v1/version", "", nil, &v); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s %s", v.Module, v.Version)
	if v.Revision != "" {
		rev := v.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(w, " (%s", rev)
		if v.Modified {
			fmt.Fprint(w, "-dirty")
		}
		fmt.Fprint(w, ")")
	}
	if v.GoVersion != "" {
		fmt.Fprintf(w, " %s", v.GoVersion)
	}
	fmt.Fprintln(w)
	return nil
}

// showRoutes prints the server's machine-readable route index — the
// discovery entry point of the v1 API.
func showRoutes(client *http.Client, base string, w io.Writer) error {
	var idx server.RouteIndex
	if _, err := fetch(client, base+"/api/v1/", "", nil, &idx); err != nil {
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

func showSummary(client *http.Client, base string, w io.Writer) error {
	var out map[string]kb.Summary
	if _, err := fetch(client, base+"/api/v1/summary", "", nil, &out); err != nil {
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
	return t.Render(w)
}

func showProfiles(client *http.Client, base, cloud string, minAgnostic float64, pattern string, minShortLived float64, w io.Writer) error {
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
	var profiles []kb.Profile
	rawURL := base + "/api/v1/profiles"
	if enc := q.Encode(); enc != "" {
		rawURL += "?" + enc
	}
	if _, err := fetch(client, rawURL, "", nil, &profiles); err != nil {
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
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d profiles\n", len(profiles))
	return nil
}

// decide posts one placement/admission request and prints the resulting
// ledger entry.
func decide(client *http.Client, base, pol, sub string, cores int, regions string, w io.Writer) error {
	req := policy.Request{
		Policy:       pol,
		Subscription: core.SubscriptionID(sub),
		Cores:        cores,
	}
	if regions != "" {
		req.Regions = strings.Split(regions, ",")
	}
	var d policy.Decision
	if _, err := fetch(client, base+"/api/v1/policy/decide", "", req, &d); err != nil {
		return err
	}
	fmt.Fprintf(w, "decision %d: %s -> %s (score %.4f, accepted %v, snapshot step %d %s)\n",
		d.ID, d.Policy, d.Action, d.Score, d.Accepted, d.SnapshotStep, d.SnapshotFingerprint)
	for _, a := range d.Alternatives {
		fmt.Fprintf(w, "  rejected %-24s score %.4f  %s\n", a.Action, a.Score, a.Note)
	}
	return nil
}

// showDecisions lists the ledger; with -limit or -cursor it walks the
// paginated envelope and prints the next cursor for the following page.
func showDecisions(client *http.Client, base, pol string, limit int, cursor string, w io.Writer) error {
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
	rawURL := base + "/api/v1/policy/decisions"
	if enc := q.Encode(); enc != "" {
		rawURL += "?" + enc
	}
	// Without paging flags the server answers a bare array; with them, the
	// envelope, whose items decode into the same typed slice.
	var items []policy.Decision
	page := kb.ListPage{Items: &items}
	paged := limit > 0 || cursor != ""
	var out interface{} = &items
	if paged {
		out = &page
	}
	if _, err := fetch(client, rawURL, "", nil, out); err != nil {
		return err
	}
	if !paged {
		page.Total = len(items)
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
	fmt.Fprintf(w, "%d of %d decisions\n", len(items), page.Total)
	if page.NextCursor != "" {
		fmt.Fprintf(w, "next: -cursor %s\n", page.NextCursor)
	}
	return nil
}

// showCounterfactual prints the regret replay for one ledger entry.
func showCounterfactual(client *http.Client, base, id string, w io.Writer) error {
	var cf policy.Counterfactual
	if _, err := fetch(client, base+"/api/v1/policy/decisions/"+url.PathEscape(id)+"/counterfactual", "", nil, &cf); err != nil {
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

func showProfile(client *http.Client, base, id string, w io.Writer) error {
	var p kb.Profile
	if _, err := fetch(client, base+"/api/v1/profiles/"+url.PathEscape(id), "", nil, &p); err != nil {
		return err
	}
	var data bytes.Buffer
	if err := json.Indent(&data, kb.AppendProfileJSON(nil, &p), "", "  "); err != nil {
		return err
	}
	fmt.Fprintln(w, data.String())
	return nil
}
