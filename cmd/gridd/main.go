// Command gridd runs the metascheduler as a long-running HTTP service: a
// bounded admission queue with backpressure and priority shedding,
// deadline-feasibility admission control, per-domain circuit breakers, and
// a graceful SIGTERM drain that snapshots still-queued jobs to disk in the
// jobio wire format.
//
// With -journal-dir set, gridd is crash-safe: every job lifecycle
// transition is appended to a write-ahead journal, and synced to disk under
// -fsync always (the default; -fsync never leaves it to the page cache)
// before it is acknowledged, and on startup the journal is
// replayed — terminal jobs keep their ledger entries (the duplicate-submit
// guard survives restarts) and jobs that were queued or in flight when the
// process died are re-enqueued, so an accepted job reaches a terminal
// state exactly once across any SIGKILL/restart sequence.
//
// With -join name=url, gridd is the federation shard of that name under the
// gridfront router at url: it additionally serves the federation wire
// protocol (handoff, revoke, ping) so the router can place jobs on it, joins
// the router on startup, which has the router resend every binding it holds
// at the shard, and reports every outcome the router does not already have
// back to it as a terminal notice. It holds the jobs it recovers until the
// router resends or revokes each. A shard always has its router: there is no
// federation mode without one. Without -join, behavior is byte-identical to
// a lone gridd, which requeues the jobs it recovers.
//
// Usage:
//
//	gridd -listen :8080 -domains 3 -seed 1
//	gridd -env nodes.json -queue 32 -snapshot drained.json
//	gridd -journal-dir /var/lib/gridd/journal -fsync always|never
//	gridd -join s0=http://127.0.0.1:8070
//
// The environment comes from -env (a jobio node file, e.g. the output of
// `jobgen -env`) or is generated synthetically from -domains/-seed. See
// the README for the curl walkthrough.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/breaker"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// parseJoin reads -join name=url: the shard's name in the fleet and the
// base URL of the router it reports to. It refuses either part empty, so no
// shard is configured without its router.
func parseJoin(v string) (shard, router string, err error) {
	shard, router, ok := strings.Cut(v, "=")
	if !ok || shard == "" || router == "" {
		return "", "", fmt.Errorf("want name=url (the shard's name and its router's base URL), got %q", v)
	}
	return shard, router, nil
}

func main() {
	var shard, router string // -join
	var (
		listen       = flag.String("listen", ":8080", "HTTP listen address")
		envPath      = flag.String("env", "", "environment JSON (jobio node file); empty generates one")
		domains      = flag.Int("domains", 2, "domain count for the generated environment")
		seed         = flag.Uint64("seed", 1, "seed for the generated environment and fault schedule")
		queueCap     = flag.Int("queue", 64, "admission queue bound")
		snapshot     = flag.String("snapshot", "gridd-drained.json", "drain snapshot path (empty disables); a journaled gridd refuses the drained IDs after a restart, so resubmit them under new names or to a gridd without that journal")
		buildTimeout = flag.Duration("build-timeout", 30*time.Second, "per-job strategy build budget (0 = unbounded)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful drain budget on SIGTERM")
		placers      = flag.Int("placers", 0, "jobs per arrival batch (≤1 = every arrival is a batch of one)")
		brThreshold  = flag.Int("breaker-threshold", 5, "consecutive failures that trip a domain breaker (0 disables breakers)")
		taskFailRate = flag.Float64("task-fail-rate", 0, "per-activation mid-run task failure probability (chaos mode)")
		mtbf         = flag.Float64("mtbf", 0, "mean model time between node outages (0 disables outages)")
		mttr         = flag.Float64("mttr", 50, "mean outage duration")
		faultHorizon = flag.Int64("fault-horizon", 1_000_000, "model-time horizon of the outage schedule")
		journalDir   = flag.String("journal-dir", "", "write-ahead job journal directory; empty disables crash safety")
		fsyncMode    = flag.String("fsync", "always", "journal fsync policy: always|never")
		segmentBytes = flag.Int64("segment-bytes", 4<<20, "journal segment rotation threshold")
		compactEvery = flag.Int("compact-every", 256, "terminal jobs between journal compactions (0 = only on recovery/drain)")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the same listener")
		spansPath    = flag.String("spans", "", "write scheduling spans as JSON lines to this file, - for stderr")
		tracePath    = flag.String("trace", "", "write VO lifecycle events as JSON lines to this file, - for stderr; sharing the -spans path interleaves both streams line-atomically")
	)
	flag.Func("join", "run as the federation shard name under the router at url, given as name=url: serves the handoff/revoke/ping endpoints, joins the router and reports outcomes to it; recovered jobs wait for the router's resend or revocation", func(v string) (err error) {
		shard, router, err = parseJoin(v)
		return err
	})
	flag.Parse()

	env, err := loadEnv(*envPath, *domains, *seed)
	if err != nil {
		log.Fatalf("gridd: %v", err)
	}

	// The span and event sinks may share one file: openSink deduplicates
	// by path and wraps the writer so each JSON line lands in one
	// serialized Write — the merged stream stays parseable.
	sinks := map[string]io.Writer{}
	spanSink, err := openSink(sinks, *spansPath)
	if err != nil {
		log.Fatalf("gridd: spans: %v", err)
	}
	traceSink, err := openSink(sinks, *tracePath)
	if err != nil {
		log.Fatalf("gridd: trace: %v", err)
	}
	var spans *telemetry.Tracer
	if spanSink != nil {
		spans = telemetry.NewTracer(spanSink)
	}
	var tracer *metasched.JSONLTracer
	if traceSink != nil {
		tracer = metasched.NewJSONLTracer(traceSink)
	}

	// One registry serves /metrics, the VO hierarchy, the breakers and the
	// journal.
	reg := telemetry.NewRegistry()

	var jnl *journal.Journal
	var recovered *journal.Recovery
	if *journalDir != "" {
		policy, err := journal.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatalf("gridd: %v", err)
		}
		jnl, recovered, err = journal.Open(journal.Options{
			Dir:          *journalDir,
			Fsync:        policy,
			SegmentBytes: *segmentBytes,
			CompactEvery: *compactEvery,
			IsTerminal:   service.Terminal,
			Telemetry:    reg,
		})
		if err != nil {
			log.Fatalf("gridd: %v", err)
		}
		defer jnl.Close()
		if recovered.TornBytes > 0 {
			log.Printf("gridd: journal: truncated torn tail (%d bytes: %s)", recovered.TornBytes, recovered.TornReason)
		}
	}

	cfg := service.Config{
		Env:          env,
		QueueCap:     *queueCap,
		BuildTimeout: *buildTimeout,
		SnapshotPath: *snapshot,
		Telemetry:    reg,
		Journal:      jnl,
		Sched: metasched.Config{
			Seed:    *seed,
			Placers: *placers,
			Spans:   spans,
			Faults: faults.Config{
				MTBF:         *mtbf,
				MTTR:         *mttr,
				TaskFailRate: *taskFailRate,
				MaxRetries:   2,
				JitterFrac:   0.2,
				Until:        timeOrZero(*mtbf, *faultHorizon),
				Seed:         *seed + 1,
			},
		},
	}
	if tracer != nil {
		cfg.Sched.Tracer = tracer
	}
	if *brThreshold > 0 {
		cfg.Breaker = &breaker.Config{Threshold: *brThreshold, JitterFrac: 0.2, Seed: *seed + 2}
	}

	// Federation glue (-join): the member serves the handoff/revoke/ping
	// endpoints in front of the service, joins the router and pushes
	// terminal notices to it. Without -join none of this is built and gridd
	// behaves exactly as before.
	var member *federation.Member
	if shard != "" {
		member = shardMember(&cfg, federation.MemberConfig{
			Shard: shard, Router: router,
			Seed: *seed + 3, Telemetry: reg, Logf: log.Printf,
		})
	}

	srv, err := service.New(cfg)
	if err != nil {
		log.Fatalf("gridd: %v", err)
	}
	if recovered != nil {
		stats, err := srv.Restore(recovered)
		if err != nil {
			log.Fatalf("gridd: recovery: %v", err)
		}
		if stats.Restored > 0 || stats.TornBytes > 0 {
			log.Printf("gridd: recovered journal through LSN %d in %.3fs — requeued=%d held=%d terminal=%d invalid=%d duplicates=%d",
				stats.LastLSN, stats.ReplaySeconds, stats.Requeued, stats.Held, stats.Terminal, stats.Invalid, stats.DuplicatesSuppressed)
		}
	}
	srv.Start()

	handler := srv.Handler()
	if member != nil {
		member.Bind(srv)
		member.Start()
		handler = member.Handler(handler)
	}
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{Addr: *listen, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("gridd: serving on %s (%d nodes, %d domains, queue %d)",
		*listen, env.NumNodes(), len(env.Domains()), *queueCap)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("gridd: %s received, draining (budget %s)", sig, *drainTimeout)
	case err := <-errc:
		log.Fatalf("gridd: http: %v", err)
	}

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	// Drain before closing the member: the drained notices it delivers
	// release the shard's queued jobs to the router for reallocation.
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("gridd: drain: %v", err)
	}
	if member != nil {
		member.Close()
	}
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("gridd: http shutdown: %v", err)
	}
	m := srv.Metrics()
	log.Printf("gridd: drained — accepted=%d completed=%d rejected=%d drained=%d",
		m.Accepted, m.Completed, m.Rejected, m.Drained)
	if tracer != nil {
		if err := tracer.Err(); err != nil {
			log.Printf("gridd: trace: %v", err)
		}
	}
}

// shardMember builds the federation member for -join and wires it into
// cfg: its Terminal pushes outcomes, and the shard holds the jobs it
// recovers until its router resends or revokes each.
func shardMember(cfg *service.Config, mc federation.MemberConfig) *federation.Member {
	member := federation.NewMember(mc)
	cfg.OnTerminal = member.Terminal
	cfg.HoldRecovered = true
	return member
}

// openSink opens (or reuses) a line-oriented JSONL sink. Identical paths
// return the same serialized writer, so spans and VO events interleave in
// one file without torn lines. "" disables the sink; "-" means stderr.
func openSink(open map[string]io.Writer, path string) (io.Writer, error) {
	if path == "" {
		return nil, nil
	}
	if w, ok := open[path]; ok {
		return w, nil
	}
	var raw io.Writer = os.Stderr
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		raw = f
	}
	w := telemetry.NewSyncWriter(raw)
	open[path] = w
	return w, nil
}

// loadEnv reads a jobio environment or generates the synthetic one.
func loadEnv(path string, domains int, seed uint64) (*resource.Environment, error) {
	if path == "" {
		return workload.New(workload.Default(seed)).Environment(domains), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("environment: %w", err)
	}
	defer f.Close()
	env, err := jobio.ReadEnvironment(f)
	if err != nil {
		return nil, fmt.Errorf("environment %s: %w", path, err)
	}
	return env, nil
}

// timeOrZero returns horizon when outages are enabled, 0 otherwise (a
// non-zero Until with MTBF 0 is harmless but misleading in logs).
func timeOrZero(mtbf float64, horizon int64) simtime.Time {
	if mtbf > 0 {
		return simtime.Time(horizon)
	}
	return 0
}
