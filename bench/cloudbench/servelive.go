package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The serve-live traffic. Rates and mix are part of the workload and are
// the same at every size.
const (
	readRate   = 200.0 // reads a second, open loop, connection A
	decideRate = 100.0 // POST /decide a second, open loop, connection B
	weekSec    = 7 * 24 * 3600
	// drainedConns is the closed-loop connections per core (of at most
	// two) in the drained phase. One per core measures the wake-up latency
	// between two vCPUs, which settles into one of two placements for a
	// whole phase (reads/s spread 27 % over repeated runs); four keep both
	// cores busy and measure the read path (spread 14 %).
	drainedConns = 4
)

// readMix is connection A's weighted operation mix.
var readMix = []struct {
	name   string
	weight int
}{
	{"summary", 3}, {"percentiles", 1}, {"regions", 1}, {"profiles_page", 2},
	{"profile", 1}, {"conditional", 5}, {"summary_gzip", 1},
}

const opDecide = -1 // shot.op of a policy decision

// subscription is one decide target learned from the server's own
// profile listing.
type subscription struct {
	ID      string   `json:"subscription"`
	Regions []string `json:"regions"`
}

// conn is one keep-alive connection to the server and what it remembers:
// the validator to replay on conditional reads, the newest snapshot tag
// seen (a change marks the first read after a fold), and per entity the
// body hash behind each tag, for the "same ETag, same bytes" check.
type conn struct {
	base   string
	client *http.Client
	rng    *rand.Rand
	subs   []subscription

	summaryTag string
	lastTag    string
	bodies     map[string][sha256.Size]byte // entity + tag -> body hash
	mismatches int
	notModFrom int // conditional reads sent
	notMod     int // of which answered 304

	rec    *recorder
	parent int
}

func newConn(base string, seed int64, subs []subscription) *conn {
	return &conn{
		base: base,
		client: &http.Client{
			Timeout: 10 * time.Second,
			// One connection, and no transparent gzip: a read asks for
			// gzip only when the mix says so.
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
		rng:    rand.New(rand.NewSource(seed)),
		subs:   subs,
		bodies: map[string][sha256.Size]byte{},
	}
}

func (c *conn) pickRead() int {
	total := 0
	for _, m := range readMix {
		total += m.weight
	}
	n := c.rng.Intn(total)
	for i, m := range readMix {
		if n < m.weight {
			return i
		}
		n -= m.weight
	}
	return 0
}

// read performs one read of the mix and judges the response.
func (c *conn) read(_ int, s *shot) {
	s.op = c.pickRead()
	name := readMix[s.op].name
	path, gz, cond := "/api/v1/live/summary", false, false
	switch name {
	case "percentiles":
		path = "/api/v1/live/percentiles"
	case "regions":
		path = "/api/v1/live/regions"
	case "profiles_page":
		path = "/api/v1/live/profiles?limit=25"
	case "profile":
		path = "/api/v1/live/profiles/" + c.subs[c.rng.Intn(len(c.subs))].ID
	case "conditional":
		cond = c.summaryTag != ""
	case "summary_gzip":
		gz = true
	}
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		s.failed = true
		return
	}
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if cond {
		req.Header.Set("If-None-Match", c.summaryTag)
		c.notModFrom++
	}
	id := c.rec.begin("http."+name, c.parent)
	status, tag, body, err := c.do(req)
	c.rec.end(id)
	s.status = status
	switch {
	case err != nil:
		s.failed = true
		return
	case status == http.StatusNotModified && cond:
		c.notMod++
	case status != http.StatusOK:
		s.failed = true
		return
	}
	if tag != "" && tag != c.lastTag {
		s.afterFold = c.lastTag != ""
		c.lastTag = tag
	}
	if status == http.StatusOK {
		if path == "/api/v1/live/summary" && !gz {
			c.summaryTag = tag
		}
		entity := path
		if gz {
			entity += " gzip"
		}
		sum := sha256.Sum256(body)
		if prev, seen := c.bodies[entity+" "+tag]; seen && prev != sum {
			c.mismatches++
			s.failed = true
		}
		c.bodies[entity+" "+tag] = sum
	}
}

// decide posts the i-th policy request.
func (c *conn) decide(i int, s *shot) {
	s.op = opDecide
	sub := c.subs[i%len(c.subs)]
	body, err := json.Marshal(decideRequest(i, sub.ID, sub.Regions))
	if err != nil {
		s.failed = true
		return
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/api/v1/policy/decide", bytes.NewReader(body))
	if err != nil {
		s.failed = true
		return
	}
	req.Header.Set("Content-Type", "application/json")
	id := c.rec.begin("http.decide", c.parent)
	status, _, _, err := c.do(req)
	c.rec.end(id)
	s.status = status
	s.failed = err != nil || status != http.StatusOK
}

func (c *conn) do(req *http.Request) (status int, etag string, body []byte, err error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("ETag"), body, err
}

// getJSON fetches one document outside the measured traffic.
func getJSON(client *http.Client, url string, v interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func scrapeServer(client *http.Client, base string) (promScrape, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// poll calls probe every 10 ms until it reports true or the timeout runs
// out.
func poll(timeout time.Duration, probe func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !probe() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// buildServer compiles cmd/wkbserver from the checkout this program runs
// in.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "wkbserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wkbserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/wkbserver: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for a loopback port nobody holds.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// server is a running wkbserver child.
type server struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	log     *os.File
}

func startServer(bin string, args []string, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// Should this program be killed, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	return &server{cmd: cmd, base: "http://" + addr, started: time.Now(), log: log}, nil
}

// stop sends SIGTERM and waits for the child to end; a child that does
// not go within ten seconds is killed. It reports whether the exit was
// clean.
func (s *server) stop() (clean bool, detail string) {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return false, err.Error()
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return false, err.Error()
		}
		os.Remove(s.log.Name()) // a server that ended cleanly leaves nothing to read
		return true, ""
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // already past saving; the wait below reaps it
		<-done
		return false, "no exit within 10 s of SIGTERM; killed"
	}
}

// drainedSlice is the length of the windows the drained phase's
// throughput is taken over; the reported rate is the median window's, so
// a brief stall of the box costs one window, not the phase.
const drainedSlice = 0.25

// ratePerSlice counts the requests completed in each whole slice of the
// phase that began at begin, as requests a second.
func ratePerSlice(shots []shot, begin time.Time, seconds float64) []float64 {
	rates := make([]float64, int(seconds/drainedSlice))
	for _, s := range shots {
		if i := int(s.done.Sub(begin).Seconds() / drainedSlice); i >= 0 && i < len(rates) {
			rates[i] += 1 / drainedSlice
		}
	}
	return rates
}

// runServeLive drives the built server binary over loopback.
func runServeLive(r *run) error {
	ingestWall, drainedWall := 0.75*r.seconds, 0.25*r.seconds
	if r.size.phaseSeconds > 0 {
		ingestWall, drainedWall = r.size.phaseSeconds, r.size.phaseSeconds
	}

	args := []string{
		"-replay", "-scale", fmt.Sprint(r.size.serveScale), "-seed", fmt.Sprint(r.seed), "-shards", "1",
		"-speedup", fmt.Sprint(weekSec / ingestWall), "-policies", servePolicies, "-trace-level", "1",
		"-log-level", "warn",
	}
	ctl := &http.Client{Timeout: 5 * time.Second}

	// Set-up is building the binary and bringing a server from exec to
	// ready; only the last pass's server is measured against.
	var srv *server
	var subs []subscription
	err := r.setup(func() error {
		bin, err := buildServer()
		if err != nil {
			return err
		}
		if srv, err = startServer(bin, args, r.path("wkbserver.log")); err != nil {
			return err
		}
		ready := poll(30*time.Second, func() bool {
			var page struct {
				Items []subscription `json:"items"`
			}
			if getJSON(ctl, srv.base+"/api/v1/live/profiles?limit=25", &page) != nil || len(page.Items) == 0 {
				return false
			}
			subs = page.Items
			return true
		})
		if !ready {
			srv.stop()
			return fmt.Errorf("server not ready within 30 s; see %s", srv.log.Name())
		}
		return nil
	}, func() error {
		if clean, detail := srv.stop(); !clean {
			return fmt.Errorf("set-up server did not stop cleanly: %s", detail)
		}
		return nil
	})
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	rss0, _ := procStatusMB(srv.cmd.Process.Pid, "VmRSS")

	// Phase "ingesting": open loop on two connections until just before
	// the paced replay is due to end.
	phase := r.rec.begin("phase.ingesting", -1)
	a := newConn(srv.base, int64(r.seed), subs)
	b := newConn(srv.base, int64(r.seed)+1, subs)
	a.rec, a.parent, b.rec, b.parent = r.rec, phase, r.rec, phase
	start := time.Now()
	end := srv.started.Add(time.Duration(0.97 * ingestWall * float64(time.Second)))
	var reads, decides []shot
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); reads = openLoop(wallClock, start, end, readRate, a.read) }()
	go func() { defer wg.Done(); decides = openLoop(wallClock, start, end, decideRate, b.decide) }()
	wg.Wait()
	r.rec.end(phase)

	var status struct {
		Done       bool    `json:"done"`
		ElapsedSec float64 `json:"elapsedSec"`
	}
	finished := poll(time.Duration((ingestWall+10)*float64(time.Second)), func() bool {
		return getJSON(ctl, srv.base+"/api/v1/live/status", &status) == nil && status.Done
	})
	r.check("replay-keeps-its-pace", finished && status.ElapsedSec <= 1.05*ingestWall,
		"replay done=%v after %.2f s, paced for %.2f s", status.Done, status.ElapsedSec, ingestWall)
	var health struct {
		Status string `json:"status"`
	}
	r.check("healthz-ok-once-drained", getJSON(ctl, srv.base+"/healthz", &health) == nil && health.Status == "ok",
		"/healthz says %q after the replay finished", health.Status)
	rss1, _ := procStatusMB(srv.cmd.Process.Pid, "VmRSS")
	scrape, err := scrapeServer(ctl, srv.base)
	if err != nil {
		return err
	}

	// Phase "drained": closed loop, the read mix only. A traced run spends
	// the first half without spans and the second with them, and the
	// difference in completed reads is the tracing overhead.
	mismatches := a.mismatches
	drained := func(seconds float64, rec *recorder, name string) []shot {
		id := rec.begin(name, -1)
		defer rec.end(id)
		conns := make([]*conn, drainedConns*min(2, runtime.NumCPU()))
		parts := make([][]shot, len(conns))
		until := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		var wg sync.WaitGroup
		for i := range conns {
			conns[i] = newConn(srv.base, int64(r.seed)+10+int64(i), subs)
			conns[i].rec, conns[i].parent = rec, id
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				parts[i] = closedLoop(wallClock, until, conns[i].read)
			}(i)
		}
		wg.Wait()
		var all []shot
		for i, c := range conns {
			all = append(all, parts[i]...)
			mismatches += c.mismatches
			c.client.CloseIdleConnections()
		}
		return all
	}
	var drainedShots []shot
	var readsPerS []float64 // one rate per slice of the drained phase
	if r.traced {
		begin := time.Now()
		off := drained(drainedWall/2, nil, "")
		on := drained(drainedWall/2, r.rec, "phase.drained")
		drainedShots = append(off, on...)
		readsPerS = ratePerSlice(off, begin, drainedWall/2)
		if len(off) > 0 {
			r.layer("trace_overhead_pct", 100*float64(len(off)-len(on))/float64(len(off)))
		}
	} else {
		begin := time.Now()
		drainedShots = drained(drainedWall, nil, "")
		readsPerS = ratePerSlice(drainedShots, begin, drainedWall)
	}

	hwm, err := procStatusMB(srv.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return err
	}
	a.client.CloseIdleConnections()
	b.client.CloseIdleConnections()
	clean, detail := srv.stop()
	stopped = true
	r.check("clean-sigterm-exit", clean, "%s", detail)

	// Requests are the operations; a failed one counts against every
	// latency limit by standing in the sample at the phase's full length.
	lat := func(shots []shot, of func(shot) float64) []float64 {
		out := make([]float64, len(shots))
		for i, s := range shots {
			out[i] = of(s)
			if s.failed {
				out[i] = ingestWall * 1000
			}
		}
		return out
	}
	for _, shots := range [][]shot{reads, decides, drainedShots} {
		r.attempted += len(shots)
		for _, s := range shots {
			if s.failed {
				r.failed++
			}
		}
	}
	r.check("same-etag-same-bytes", mismatches == 0, "%d reads returned a known ETag with different bytes", mismatches)
	if len(reads) == 0 || len(decides) == 0 || len(drainedShots) == 0 {
		return fmt.Errorf("no traffic completed: %d reads, %d decides, %d drained reads", len(reads), len(decides), len(drainedShots))
	}

	readMS, decideMS := lat(reads, shot.latencyMS), lat(decides, shot.latencyMS)
	r.name("read_p50_ms", math.NaN(), readMS, operations)
	r.name("read_p99_ms", tailOf(readMS, 99), readMS, operations)
	r.name("decide_p50_ms", math.NaN(), decideMS, operations)
	r.name("decide_p99_ms", tailOf(decideMS, 99), decideMS, operations)
	sendMS := lat(reads, shot.serviceMS)
	r.name("read_send_p95_ms", tailOf(sendMS, 95), sendMS, operations)
	r.name("reads_per_s", math.NaN(), readsPerS, operations)
	r.slot("work_per_s", math.NaN(), readsPerS, operations)
	r.slot("op_p50_ms", math.NaN(), readMS, operations)
	r.slot("op_tail_ms", math.NaN(), readMS, operations)
	r.slot("peak_rss_mb", hwm, []float64{hwm}, iterations)
	r.iterations["reads"], r.iterations["decides"], r.iterations["drained-reads"] = len(reads), len(decides), len(drainedShots)
	if !r.traced {
		return nil
	}

	// Per-route service times (from send, so generator lateness is not in
	// them), the first read after each fold, and the server's own books.
	byOp := map[int][]float64{}
	var firstAfterFold, late []float64
	for _, s := range reads {
		if s.failed {
			continue
		}
		byOp[s.op] = append(byOp[s.op], s.serviceMS())
		if s.afterFold {
			firstAfterFold = append(firstAfterFold, s.serviceMS())
		}
		late = append(late, s.lateMS())
	}
	for i, m := range readMix {
		r.layer("http."+m.name+"_p50_ms", median(byOp[i]))
	}
	decideSvc := lat(decides, shot.serviceMS)
	r.layer("http.decide_p50_ms", median(decideSvc))
	r.layer("http.decide_p99_ms", tailOf(decideSvc, 99))
	r.layer("http.read_due_p99_ms", tailOf(readMS, 99))
	r.layer("http.first_after_fold_p50_ms", median(firstAfterFold))
	if a.notModFrom > 0 {
		r.layer("http.not_modified_share", float64(a.notMod)/float64(a.notModFrom))
	}
	for _, s := range decides {
		late = append(late, s.lateMS())
	}
	r.layer("http.loadgen_late_p99_ms", tailOf(late, 99))
	r.layer("policy.server_decide_mean_ms", 1000*scrape.mean("cloudlens_policy_decide_seconds"))
	r.layer("policy.ledger_entries", scrape.sum("cloudlens_policy_ledger_entries"))
	r.layer("stream.ingest.live_fold_mean_ms", 1000*scrape.mean("cloudlens_stream_fold_duration_seconds"))
	r.layer("stream.replay.live_stalls", scrape.sum("cloudlens_stream_backpressure_stalls_total"))
	r.layer("obs.rss_mb_per_1k_decisions", (rss1-rss0)/(float64(len(decides))/1000))
	return r.writeSpanFile()
}
