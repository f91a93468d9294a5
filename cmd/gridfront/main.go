// Command gridfront runs the federation front tier: a consistent-hash
// router that partitions submitted jobs across N gridd metascheduler
// shards over the versioned federation wire protocol. Clients talk to it
// exactly as they talk to a single gridd (POST /v1/jobs), and the router
// handles shard failure detection, partition-safe handoff retries,
// confirmed revocation and cross-shard reallocation behind that one
// endpoint.
//
// With -journal-dir set, the router's placement ledger is crash-safe:
// every acceptance, binding and revocation is journaled and synced before
// it is acknowledged or sent, a terminal result, which mirrors a shard's
// durable answer, rides the next sync, and on startup the ledger is
// replayed — each in-doubt
// binding is sent again to the shard it is bound to, whose idempotent
// answer settles it as a live binding's does, so an accepted job reaches a
// terminal state exactly once across any SIGKILL/restart sequence on
// either side.
//
// Usage:
//
//	gridfront -listen :8070 -shard s0=http://127.0.0.1:8081 -shard s1=http://127.0.0.1:8082
//	gridfront -journal-dir /var/lib/gridfront/journal -fsync always|never \
//	    -heartbeat 250ms -breaker-threshold 5 -retry-budget 3
//
// See README.md ("Federated metascheduling") for a full multi-process
// walkthrough and DESIGN.md §13 for the failure model.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/breaker"
	"repro/internal/federation"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// shardFlags collects repeated -shard name=url flags in order.
type shardFlags []struct{ name, base string }

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, sh := range *s {
		parts[i] = sh.name + "=" + sh.base
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	name, base, ok := strings.Cut(v, "=")
	if !ok || name == "" || base == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	for _, sh := range *s {
		if sh.name == name {
			return fmt.Errorf("duplicate shard name %q", name)
		}
	}
	*s = append(*s, struct{ name, base string }{name, base})
	return nil
}

func main() {
	var shards shardFlags
	var (
		listen       = flag.String("listen", ":8070", "HTTP listen address")
		seed         = flag.Uint64("seed", 1, "seed for backoff jitter and breaker jitter")
		heartbeat    = flag.Duration("heartbeat", 250*time.Millisecond, "shard ping period")
		retryBudget  = flag.Int("retry-budget", 3, "handoff attempts per binding before revocation starts")
		retryBase    = flag.Duration("retry-base", 100*time.Millisecond, "base backoff before a handoff or revoke that settled nothing is sent again")
		retryCap     = flag.Duration("retry-cap", 2*time.Second, "cap of the handoff and revoke retry backoff")
		rpcTimeout   = flag.Duration("rpc-timeout", 2*time.Second, "one handoff/revoke RPC budget")
		workers      = flag.Int("workers", 4, "dispatcher pool size")
		brThreshold  = flag.Int("breaker-threshold", 5, "consecutive failed pings, handoffs or revokes that declare a shard dead (0 = 5)")
		journalDir   = flag.String("journal-dir", "", "write-ahead placement journal directory; empty disables crash safety")
		fsyncMode    = flag.String("fsync", "always", "journal fsync policy: always|never")
		segmentBytes = flag.Int64("segment-bytes", 4<<20, "journal segment rotation threshold")
		compactEvery = flag.Int("compact-every", 256, "terminal jobs between journal compactions (0 = only on recovery/drain)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
	)
	flag.Var(&shards, "shard", "shard as name=url (repeatable, required)")
	flag.Parse()

	if len(shards) == 0 {
		log.Fatalf("gridfront: at least one -shard name=url is required")
	}

	reg := telemetry.NewRegistry()

	var jnl *journal.Journal
	var recovered *journal.Recovery
	if *journalDir != "" {
		policy, err := journal.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatalf("gridfront: %v", err)
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
			log.Fatalf("gridfront: %v", err)
		}
		defer jnl.Close()
		if recovered.TornBytes > 0 {
			log.Printf("gridfront: journal: truncated torn tail (%d bytes: %s)", recovered.TornBytes, recovered.TornReason)
		}
	}

	client := &http.Client{Timeout: *rpcTimeout + time.Second}
	fleet := make([]federation.ShardClient, len(shards))
	for i, sh := range shards {
		fleet[i] = federation.NewHTTPShard(sh.name, sh.base, client)
	}

	cfg := federation.Config{
		Shards:            fleet,
		Journal:           jnl,
		Telemetry:         reg,
		HeartbeatInterval: *heartbeat,
		RetryBudget:       *retryBudget,
		RetryBase:         *retryBase,
		RetryCap:          *retryCap,
		HandoffTimeout:    *rpcTimeout,
		Seed:              *seed,
		Workers:           *workers,
		Logf:              log.Printf,
		Breaker:           breaker.Config{Threshold: *brThreshold, JitterFrac: 0.2, Seed: *seed + 2},
	}

	router, err := federation.New(cfg)
	if err != nil {
		log.Fatalf("gridfront: %v", err)
	}
	if recovered != nil {
		n, err := router.Restore(recovered)
		if err != nil {
			log.Fatalf("gridfront: recovery: %v", err)
		}
		if n > 0 {
			log.Printf("gridfront: recovered %d jobs from the placement journal", n)
		}
	}
	router.Start()

	httpSrv := &http.Server{Addr: *listen, Handler: router.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("gridfront: routing across %d shards on %s (heartbeat %s, breaker threshold %d, retry budget %d)",
		len(fleet), *listen, *heartbeat, *brThreshold, *retryBudget)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("gridfront: %s received, draining (budget %s)", sig, *drainTimeout)
	case err := <-errc:
		log.Fatalf("gridfront: http: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := router.Drain(ctx); err != nil {
		log.Printf("gridfront: drain: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("gridfront: http shutdown: %v", err)
	}
	router.Close()
	m := router.Metrics()
	log.Printf("gridfront: drained — accepted=%d completed=%d rejected=%d reallocated=%d revocations=%d",
		m.Accepted, m.Completed, m.Rejected, m.Reallocated, m.Revocations)
}
