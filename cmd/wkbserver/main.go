// Command wkbserver runs the workload knowledge base (the system proposed
// in the paper's Section V) as an HTTP service: it extracts per-
// subscription workload knowledge from a trace and serves it as JSON.
//
// Routes (all GET; errors use the {"error":{"code","message"}} envelope):
//
//	GET /healthz                         readiness: ok | ingesting
//	GET /metrics                         Prometheus text exposition
//	GET /api/v1/version                  build info
//	GET /api/v1/summary
//	GET /api/v1/profiles?cloud=private&minAgnostic=0.8&pattern=diurnal
//	GET /api/v1/profiles/{subscription-id}
//	GET /api/v1/                         machine-readable route index
//	GET /api/v1/live/status              (with -replay)
//	GET /api/v1/live/summary             (with -replay)
//	GET /api/v1/live/percentiles         (with -replay)
//	GET /api/v1/live/regions             (with -replay)
//	GET /api/v1/live/profiles[?filters]  (with -replay)
//	GET /api/v1/live/profiles/{id}       (with -replay)
//	GET /api/v1/live/faults              (with -replay)
//	POST /api/v1/policy/decide           (with -policies)
//	GET /api/v1/policy/decisions         (with -policies; cursor-paginated)
//	GET /api/v1/policy/decisions/{id}/counterfactual (with -policies)
//
// By default the server generates (or loads, with -trace) a CPU-family
// trace; -family serverless generates the serverless invocation family
// instead (one-minute grid, bursty/steady/spiky/diurnal taxonomy), with
// optional overrides in the -serverless key=value grammar.
//
// By default the knowledge base is extracted once, up front, from the full
// trace. With -replay the server instead streams the trace through the
// incremental ingestion pipeline in simulated time (-speedup compresses
// the clock; 0 replays as fast as ingestion keeps up) and the knowledge
// base fills in continuously while the server runs; /healthz reports
// "ingesting" until the replay completes. -shards partitions ingestion by
// subscription hash across that many parallel ingestor shards (default:
// GOMAXPROCS); the merged knowledge base is bit-exact with -shards 1, and
// /healthz plus /api/v1/live/faults break progress and fault counters out
// per shard.
//
// Fault tolerance: -faults injects a seeded fault mix into the replay
// (grammar: drop=0.01,dup=0.005,delay=0.002:3,corrupt=0.001,seed=1);
// -lateness and -gap-policy tune the ingestor's reorder window and gap
// repair. -checkpoint-dir enables durable checkpoints, written every
// -checkpoint-every and once more on SIGTERM; -resume continues ingestion
// from the newest checkpoint instead of replaying from step 0 (starting
// fresh when none exists yet).
//
// Policies: -policies enables the online decision engine (grammar:
// "oversub:risk=4,spot,balance"). Policies evaluate requests against an
// immutable knowledge-base snapshot — republished at every fold boundary
// during a replay, fixed to the extracted KB in batch mode — and append
// every decision to a ledger served at /api/v1/policy/decisions.
// -trace-level controls how much each entry records and
// -counterfactual-k how many rejected alternatives are kept and
// re-scored by the counterfactual route. /healthz carries the engine's
// vitals.
//
// Observability: /metrics exposes the process's counter/gauge/histogram
// series (catalog in DESIGN.md §7); -debug-addr starts a second listener
// serving net/http/pprof; -log-level sets the slog threshold and
// -log-requests emits one debug record per request.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window, an active replay is stopped, and -save (if given)
// persists the knowledge base — in replay mode, the state reached so far.
//
// Usage:
//
//	wkbserver [-addr :8080] [-seed 42] [-trace bundle/trace.json.gz]
//	          [-replay] [-shards 4] [-speedup 2016] [-save kb.json]
//	          [-faults drop=0.01,seed=1] [-lateness 3] [-gap-policy carry]
//	          [-checkpoint-dir /var/lib/cloudlens] [-checkpoint-every 30s] [-resume]
//	          [-policies oversub,spot,balance] [-trace-level 1] [-counterfactual-k 3]
//	          [-debug-addr :6060] [-log-level info] [-log-requests]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cloudlens"
	"cloudlens/internal/obs"
)

// shutdownTimeout is the drain window for in-flight requests after a
// termination signal.
const shutdownTimeout = 5 * time.Second

// Public-listener timeouts. Every route answers from an in-memory snapshot
// and none streams, so a response that takes longer than writeTimeout to
// write is a stalled reader pinning a connection (and the snapshot its
// handler holds); idleTimeout closes keep-alive connections nobody uses.
const (
	readHeaderTimeout = 5 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 120 * time.Second
)

// publicServer is the API listener's configuration.
func publicServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wkbserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		seed        = flag.Uint64("seed", 42, "generation seed (ignored with -trace)")
		scale       = flag.Float64("scale", 1.0, "universe scale (ignored with -trace)")
		family      = flag.String("family", "cpu", "generated workload family: cpu | serverless (ignored with -trace)")
		serverless  = flag.String("serverless", "", "serverless-family overrides, key=value grammar (implies -family serverless; ignored with -trace)")
		tracePath   = flag.String("trace", "", "load a saved trace instead of generating")
		replay      = flag.Bool("replay", false, "stream the trace through the live ingestion pipeline instead of extracting up front")
		shards      = flag.Int("shards", runtime.GOMAXPROCS(0), "ingestion shards for -replay; subscriptions are hash-partitioned across this many parallel ingestors (1 = one shard, ingested inline)")
		speedup     = flag.Float64("speedup", 0, "simulated-to-wall-clock ratio for -replay (0 = as fast as possible)")
		save        = flag.String("save", "", "persist the knowledge base JSON to this path on exit (batch mode: after extraction)")
		faults      = flag.String("faults", "", "inject a seeded fault mix into the replay, e.g. drop=0.01,dup=0.005,delay=0.002:3,corrupt=0.001,seed=1")
		lateness    = flag.Int("lateness", 0, "reorder window in steps the ingestor tolerates (0 = default 3, negative = strictly in-order)")
		gapPolicy   = flag.String("gap-policy", "carry", "repair policy for per-VM sample gaps: carry | skip | interpolate")
		ckptDir     = flag.String("checkpoint-dir", "", "write durable ingestion checkpoints into this directory (requires -replay)")
		ckptEvery   = flag.Duration("checkpoint-every", 30*time.Second, "checkpoint interval while the replay runs")
		resume      = flag.Bool("resume", false, "continue ingestion from the checkpoint in -checkpoint-dir instead of replaying from step 0")
		policies    = flag.String("policies", "", "enable the online policy engine with this spec, e.g. oversub:risk=4,spot,balance (empty = disabled)")
		traceLevel  = flag.Int("trace-level", 1, "policy ledger detail: 0 chosen action only, 1 +top-k rejected alternatives, 2 +evaluation spans")
		cfK         = flag.Int("counterfactual-k", 3, "rejected alternatives recorded per decision and re-scored during counterfactual replay")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		logLevel    = flag.String("log-level", "info", "log threshold: debug | info | warn | error")
		logRequests = flag.Bool("log-requests", false, "log one debug record per HTTP request (needs -log-level debug)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		return err
	}

	var tr *cloudlens.Trace
	switch {
	case *tracePath != "":
		tr, err = cloudlens.LoadTrace(*tracePath)
	case *serverless != "" || *family == "serverless":
		var cfg cloudlens.ServerlessConfig
		cfg, err = cloudlens.ParseServerlessSpec(*serverless)
		if err != nil {
			return err
		}
		// The -seed and -scale flags are the base; spec keys override.
		if !specHas(*serverless, "seed") {
			cfg.Seed = *seed
		}
		if !specHas(*serverless, "scale") {
			cfg.Scale = *scale
		}
		tr, err = cloudlens.GenerateServerless(cfg)
	case *family == "cpu":
		cfg := cloudlens.DefaultConfig(*seed)
		cfg.Scale = *scale
		tr, err = cloudlens.Generate(cfg)
	default:
		return fmt.Errorf("unknown -family %q (want cpu or serverless)", *family)
	}
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for flagName, set := range map[string]bool{
		"-faults":         *faults != "",
		"-checkpoint-dir": *ckptDir != "",
		"-resume":         *resume,
	} {
		if set && !*replay {
			return fmt.Errorf("%s requires -replay", flagName)
		}
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}

	pols, err := cloudlens.ParsePolicySpec(*policies)
	if err != nil {
		return fmt.Errorf("-policies: %w", err)
	}
	if *traceLevel < 0 || *traceLevel > 2 {
		return fmt.Errorf("-trace-level must be 0, 1, or 2 (got %d)", *traceLevel)
	}
	if *cfK < 1 {
		return fmt.Errorf("-counterfactual-k must be at least 1 (got %d)", *cfK)
	}

	var (
		store   *cloudlens.KnowledgeBase
		pipe    *cloudlens.StreamPipeline
		inj     *cloudlens.FaultInjector
		peng    *cloudlens.PolicyEngine
		readSrc *cloudlens.StreamReadSource
	)
	if *replay {
		gp, err := cloudlens.ParseGapPolicy(*gapPolicy)
		if err != nil {
			return err
		}
		spec, err := cloudlens.ParseFaultSpec(*faults)
		if err != nil {
			return err
		}
		if *shards < 1 {
			return fmt.Errorf("-shards must be at least 1 (got %d)", *shards)
		}
		// The read source must be in the options before the pipeline is
		// built (ingestors copy them) and bound to the engine before
		// Start, so no fold can race the binding. It backs every
		// snapshot-served GET and, with -policies, the policy engine.
		readSrc = cloudlens.NewStreamReadSource(time.Now)
		opts := cloudlens.StreamOptions{
			Speedup:          *speedup,
			MaxLatenessSteps: *lateness,
			GapPolicy:        gp,
			Shards:           *shards,
			WrapSource:       spec.Wrap(tr.Grid.N, *speedup, &inj),
			FoldObserver:     readSrc,
		}
		ckptPath := checkpointPath(*ckptDir)
		pipe, err = startPipeline(tr, opts, ckptPath, *resume, logger)
		if err != nil {
			return err
		}
		readSrc.Bind(pipe.Engine())
		obs.Default.GaugeFunc("cloudlens_read_snapshot_age_seconds",
			"Age of the live snapshot currently served to readers.",
			func() float64 {
				at := readSrc.Live().KB().PublishedAt()
				if at.IsZero() {
					return 0
				}
				return time.Since(at).Seconds()
			})
		pipe.Start(ctx)
		store = pipe.KB()
		logger.Info("replay started",
			"family", tr.Family.String(),
			"vms", len(tr.VMs), "steps", tr.Grid.N, "speedup", *speedup,
			"shards", *shards, "faults", spec.Enabled(), "gapPolicy", gp.String())
		if ckptPath != "" {
			go checkpointLoop(ctx, pipe, ckptPath, *ckptEvery, logger)
		}
	} else {
		logger.Info("extracting workload knowledge", "family", tr.Family.String(), "vms", len(tr.VMs))
		store = cloudlens.ExtractKnowledgeBase(tr)
		logger.Info("knowledge base ready", "profiles", store.Len())
		if *save != "" {
			if err := store.SaveFile(*save); err != nil {
				return err
			}
			logger.Info("knowledge base saved", "path", *save)
		}
	}

	if len(pols) > 0 {
		var src cloudlens.PolicySnapshotSource = readSrc
		if readSrc == nil {
			src = cloudlens.NewPolicyStoreSource(store, tr.Grid.N)
		}
		peng, err = cloudlens.NewPolicyEngine(src, pols, cloudlens.PolicyEngineOptions{
			TraceLevel:      *traceLevel,
			CounterfactualK: *cfK,
			Clock:           time.Now,
		})
		if err != nil {
			return err
		}
		logger.Info("policy engine enabled",
			"policies", peng.Policies(), "traceLevel", *traceLevel, "counterfactualK", *cfK)
	}

	var reqLog *slog.Logger
	if *logRequests {
		reqLog = logger
	}
	srv := publicServer(*addr, buildHandler(store, pipe, readSrc, inj, peng, reqLog))

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           pprofMux(),
			ReadHeaderTimeout: readHeaderTimeout,
		}
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	logger.Info("serving", "addr", *addr)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(sctx)
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	if pipe != nil {
		pipe.Stop()
		// A final checkpoint on SIGTERM captures whatever the stopped
		// replay reached, so -resume continues from here, not from the
		// last timer tick.
		if path := checkpointPath(*ckptDir); path != "" {
			saveCheckpoint(pipe, path, logger, slog.LevelInfo, "final checkpoint")
		}
		if *save != "" {
			if err := store.SaveFile(*save); err != nil {
				return err
			}
			logger.Info("knowledge base saved", "path", *save)
		}
	}
	if err := <-errCh; err != nil {
		return err
	}
	return shutdownErr
}

// specHas reports whether the serverless spec already sets the given key,
// so the -seed/-scale flags do not stomp an explicit spec value.
func specHas(spec, key string) bool {
	for _, field := range strings.Split(spec, ",") {
		k, _, ok := strings.Cut(strings.TrimSpace(field), "=")
		if ok && k == key {
			return true
		}
	}
	return false
}

// checkpointFile is the checkpoint's name inside -checkpoint-dir. Writes
// go through a temp file + rename, so the path always holds a complete
// snapshot.
const checkpointFile = "cloudlens.ckpt"

func checkpointPath(dir string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, checkpointFile)
}

// startPipeline builds the streaming pipeline, resuming from the
// checkpoint when -resume is set and one exists. A missing checkpoint is
// not an error — the first boot of a supervised server has nothing to
// resume — but a checkpoint that exists and fails to load is: silently
// restarting from step 0 would discard state the operator asked to keep.
func startPipeline(tr *cloudlens.Trace, opts cloudlens.StreamOptions, ckptPath string, resume bool, logger *slog.Logger) (*cloudlens.StreamPipeline, error) {
	if resume && ckptPath != "" {
		ck, err := cloudlens.LoadStreamCheckpoint(ckptPath, tr)
		switch {
		case errors.Is(err, os.ErrNotExist):
			logger.Info("no checkpoint found; starting from step 0", "path", ckptPath)
		case err != nil:
			return nil, fmt.Errorf("resume: %w", err)
		default:
			pipe, err := cloudlens.ResumeStreamPipeline(tr, opts, ck)
			if err != nil {
				return nil, fmt.Errorf("resume: %w", err)
			}
			logger.Info("resuming from checkpoint", "path", ckptPath, "step", ck.LastStep)
			return pipe, nil
		}
	}
	if err := ensureCheckpointDir(ckptPath); err != nil {
		return nil, err
	}
	return cloudlens.NewStreamPipeline(tr, opts), nil
}

func ensureCheckpointDir(ckptPath string) error {
	if ckptPath == "" {
		return nil
	}
	return os.MkdirAll(filepath.Dir(ckptPath), 0o755)
}

// checkpointLoop writes a durable checkpoint every interval while the
// replay is still ingesting. The final SIGTERM checkpoint is written by
// the shutdown path, after the pipeline has stopped.
func checkpointLoop(ctx context.Context, pipe *cloudlens.StreamPipeline, path string, every time.Duration, logger *slog.Logger) {
	if every <= 0 {
		return
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if pipe.Status().Done {
			return
		}
		saveCheckpoint(pipe, path, logger, slog.LevelDebug, "checkpoint")
	}
}

// saveCheckpoint writes one checkpoint and logs the step it holds, its
// size, and how long the write took — at level on success, as an error
// otherwise. what names the snapshot in the message.
func saveCheckpoint(pipe *cloudlens.StreamPipeline, path string, logger *slog.Logger, level slog.Level, what string) {
	start := time.Now()
	info, err := pipe.SaveCheckpoint(path)
	if err != nil {
		logger.Error(what+" failed", "path", path, "err", err)
		return
	}
	logger.Log(context.Background(), level, what+" written",
		"path", path, "step", info.Step, "bytes", info.Bytes, "duration", time.Since(start))
}

// pprofMux serves the standard pprof surface on a dedicated mux so the
// profiling listener shares nothing with the public API (and never goes
// through its middleware or envelope).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
