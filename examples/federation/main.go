// Federation demonstrates fault-tolerant federated metascheduling as a
// real multi-process deployment: the parent process runs the front-tier
// router (the code behind cmd/gridfront) and re-execs itself twice as
// journaled metascheduler shards (the code behind gridd -join), wired
// over loopback HTTP with the versioned handoff wire protocol. Mid-run it
// SIGKILLs one shard: its failed heartbeats trip the router's breaker for
// it, which declares it dead; the recovery ladder revokes the dead shard's
// queued jobs and reallocates them to the survivor; and when the shard
// restarts against its journal it holds every recovered job and joins,
// and the router resends each binding it holds there, which releases the
// jobs still the shard's — so every accepted job reaches a terminal state
// exactly once, which the final audit checks against both shard ledgers.
//
// Run it with:
//
//	go run ./examples/federation
//
// The run is wall-clock concurrent, so log interleavings vary, but the
// final audit must always pass. See DESIGN.md §13 for the protocol and
// internal/federation/chaos_test.go for the adversarial version with
// partitions, duplicated frames and 20 kill-restart cycles.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/breaker"
	"repro/internal/federation"
	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/workload"
)

const (
	roleEnv   = "FEDEX_ROLE"
	nameEnv   = "FEDEX_NAME"
	addrEnv   = "FEDEX_ADDR"
	routerEnv = "FEDEX_ROUTER"
	dirEnv    = "FEDEX_DIR"
)

func shardEnv() *resource.Environment {
	return workload.New(workload.Default(42)).Environment(2)
}

func main() {
	if os.Getenv(roleEnv) == "shard" {
		runShard()
		return
	}
	if err := runRouter(); err != nil {
		log.Fatalf("federation example: %v", err)
	}
}

// runShard is the re-exec'd child: a journaled service behind the
// federation member glue, exactly the wiring `gridd -join s0=URL
// -journal-dir DIR` performs.
func runShard() {
	name := os.Getenv(nameEnv)
	logf := func(f string, a ...any) { log.Printf("[%s] "+f, append([]any{name}, a...)...) }

	jnl, recovered, err := journal.Open(journal.Options{
		Dir: os.Getenv(dirEnv), Fsync: journal.FsyncAlways, IsTerminal: service.Terminal,
	})
	if err != nil {
		log.Fatalf("[%s] journal: %v", name, err)
	}
	member := federation.NewMember(federation.MemberConfig{
		Shard: name, Router: os.Getenv(routerEnv), Logf: logf,
	})
	svc, err := service.New(service.Config{
		Env:           shardEnv(),
		Sched:         metasched.Config{Seed: 42},
		QueueCap:      64,
		Journal:       jnl,
		HoldRecovered: true, // recovered jobs wait for the router's resend or revocation
		OnTerminal:    member.Terminal,
	})
	if err != nil {
		log.Fatalf("[%s] service: %v", name, err)
	}
	if stats, err := svc.Restore(recovered); err != nil {
		log.Fatalf("[%s] restore: %v", name, err)
	} else if stats.Restored > 0 {
		logf("recovered %d journaled jobs; holding non-terminal ones for the router's resends", stats.Restored)
	}
	svc.Start()
	member.Bind(svc)
	member.Start()

	ln, err := net.Listen("tcp", os.Getenv(addrEnv))
	if err != nil {
		log.Fatalf("[%s] listen: %v", name, err)
	}
	go http.Serve(ln, member.Handler(svc.Handler()))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	<-sigc
	_ = svc.Drain(context.Background()) // its drained notices leave in Close
	member.Close()
	_ = jnl.Close()
	os.Exit(0)
}

// runRouter is the parent: spawn the shard fleet, route jobs at it, murder
// a shard mid-run, and audit exactly-once execution at the end.
func runRouter() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "federation-example-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The router's own HTTP endpoint (join handshakes, terminal notices).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	routerURL := "http://" + ln.Addr().String()

	// Fixed shard ports so a restarted incarnation is reachable at the
	// same address the router already knows.
	addrs := map[string]string{"s0": freeAddr(), "s1": freeAddr()}
	spawn := func(name string) *exec.Cmd {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			roleEnv+"=shard", nameEnv+"="+name, addrEnv+"="+addrs[name],
			routerEnv+"="+routerURL, dirEnv+"="+dir+"/"+name)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("spawn %s: %v", name, err)
		}
		waitHealthy(name, addrs[name])
		return cmd
	}
	procs := map[string]*exec.Cmd{"s0": spawn("s0"), "s1": spawn("s1")}

	client := &http.Client{Timeout: 3 * time.Second}
	fleet := []federation.ShardClient{
		federation.NewHTTPShard("s0", "http://"+addrs["s0"], client),
		federation.NewHTTPShard("s1", "http://"+addrs["s1"], client),
	}
	jnl, recovered, err := journal.Open(journal.Options{
		Dir: dir + "/router", Fsync: journal.FsyncAlways, IsTerminal: service.Terminal,
	})
	if err != nil {
		return err
	}
	defer jnl.Close()
	router, err := federation.New(federation.Config{
		Shards:            fleet,
		Journal:           jnl,
		Seed:              42,
		HeartbeatInterval: 150 * time.Millisecond,
		Breaker:           breaker.Config{Threshold: 4},
		RetryBudget:       3,
		RetryBase:         50 * time.Millisecond,
		Logf:              log.Printf,
	})
	if err != nil {
		return err
	}
	if _, err := router.Restore(recovered); err != nil {
		return err
	}
	router.Start()
	go http.Serve(ln, router.Handler())
	fmt.Printf("router up at %s; shards s0=%s s1=%s\n\n", routerURL, addrs["s0"], addrs["s1"])

	// Offer a first wave of jobs: consistent hashing spreads them across
	// both shards.
	gen := workload.New(workload.Default(42))
	accepted := []string{}
	for i, a := range gen.Flow(0, 10, 0) {
		wire := jobio.FromJob(a.Job)
		wire.Name = fmt.Sprintf("wave1-%d", i)
		wire.Deadline = 120
		if _, err := router.Submit(wire, "S1", 0); err != nil {
			fmt.Printf("submit %s: %v\n", wire.Name, err)
			continue
		}
		accepted = append(accepted, wire.Name)
	}
	fmt.Printf("wave 1: %d jobs accepted\n", len(accepted))
	time.Sleep(300 * time.Millisecond)

	// Murder s0 without ceremony. Heartbeats miss, the breaker opens, the
	// death sweep revokes s0's queued jobs and reallocates them to s1.
	fmt.Printf("\n>>> SIGKILL s0 <<<\n\n")
	_ = procs["s0"].Process.Kill()
	_, _ = procs["s0"].Process.Wait()

	// The survivor keeps admitting while s0 is down.
	for i, a := range gen.Flow(0, 5, 1) {
		wire := jobio.FromJob(a.Job)
		wire.Name = fmt.Sprintf("wave2-%d", i)
		wire.Deadline = 120
		if _, err := router.Submit(wire, "S1", 0); err != nil {
			fmt.Printf("submit %s: %v\n", wire.Name, err)
			continue
		}
		accepted = append(accepted, wire.Name)
	}
	fmt.Printf("wave 2 (s0 dead): %d total accepted\n", len(accepted))
	time.Sleep(1 * time.Second)

	// Restart s0 against the same journal: it recovers its ledger, holds
	// the non-terminal jobs and joins. The router resends every binding it
	// holds at s0, which releases what s0 still owns; what moved while s0
	// was down, the router's revocation took back.
	fmt.Printf("\n>>> restarting s0 against its journal <<<\n\n")
	procs["s0"] = spawn("s0")

	deadline := time.Now().Add(60 * time.Second)
	for {
		done := 0
		for _, id := range accepted {
			if v, ok := router.Job(id); ok && service.Terminal(v.State) {
				done++
			}
		}
		if done == len(accepted) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d jobs still non-terminal", len(accepted)-done, len(accepted))
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Audit: every accepted job is terminal on the router and appears as
	// an execution on EXACTLY one shard ledger.
	fmt.Printf("\naudit: every accepted job terminal exactly once\n")
	ledgers := map[string]map[string]service.Record{}
	for name, addr := range addrs {
		var recs []service.Record
		if err := getJSON(client, "http://"+addr+"/v1/jobs", &recs); err != nil {
			return fmt.Errorf("ledger %s: %w", name, err)
		}
		byID := make(map[string]service.Record, len(recs))
		for _, rec := range recs {
			byID[rec.ID] = rec
		}
		ledgers[name] = byID
	}
	sort.Strings(accepted)
	for _, id := range accepted {
		v, _ := router.Job(id)
		holders := []string{}
		for name, recs := range ledgers {
			if rec, ok := recs[id]; ok && rec.State != service.StateRevoked {
				holders = append(holders, fmt.Sprintf("%s=%s@epoch%d", name, rec.State, rec.Epoch))
			}
		}
		if len(holders) != 1 {
			return fmt.Errorf("job %s: %d executions (%v)", id, len(holders), holders)
		}
		fmt.Printf("  %-9s %-9s on %s\n", id, v.State, holders[0])
	}
	m := router.Metrics()
	fmt.Printf("\nrouter: accepted=%d completed=%d rejected=%d revocations=%d reallocated=%d\n",
		m.Accepted, m.Completed, m.Rejected, m.Revocations, m.Reallocated)

	for _, cmd := range procs {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_, _ = cmd.Process.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = router.Drain(ctx)
	router.Close()
	return nil
}

// freeAddr grabs a loopback port the shard child will re-listen on.
func freeAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitHealthy(name, addr string) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	log.Fatalf("shard %s never became healthy at %s", name, addr)
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
