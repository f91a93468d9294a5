package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/chaostest"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/service"
)

// The federation partition/chaos harness. The test binary re-execs itself
// as a miniature gridd shard or gridfront router (TestMain dispatches on
// GRIDFED_CHILD). The parent runs seeded cycles of:
//
//   - job bursts submitted to the router,
//   - SIGKILL + restart of shards and of the router itself (same journal
//     directories, same fixed ports),
//   - seeded network faults on every router↔shard link (drop, delay,
//     duplicate, ack-loss) plus scheduled full-partition (sever) windows,
//
// and asserts the two federation invariants at the end, with faults off:
//
//  1. zero accepted-job loss — every ID the router 202'd reaches a
//     terminal state in the router ledger;
//  2. zero double-execution — each such job has a non-revoked terminal
//     record on AT MOST one shard, and exactly one when it completed or
//     was rejected.
//
// Availability during partitions is pinned by TestDeadShardSweep at the
// unit level (a survivor admits while a peer is dead); here it shows up
// as the run converging at all.

const (
	fedChildEnv  = "GRIDFED_CHILD" // "shard" | "router"
	fedDirEnv    = "GRIDFED_DIR"
	fedAddrEnv   = "GRIDFED_ADDR"   // fixed listen address
	fedRouterEnv = "GRIDFED_ROUTER" // router base URL (shard children)
	fedShardsEnv = "GRIDFED_SHARDS" // "s0=url,s1=url" (router child)
	fedNameEnv   = "GRIDFED_NAME"
	fedSeedEnv   = "GRIDFED_SEED"
	fedFaultsEnv = "GRIDFED_FAULTS" // "1" arms fault injection + sever windows
)

func TestMain(m *testing.M) {
	chaostest.Main(m, fedChildEnv, map[string]func(){"shard": fedShardChild, "router": fedRouterChild})
}

func childEnvSeed() uint64 {
	n, _ := strconv.ParseUint(os.Getenv(fedSeedEnv), 10, 64)
	if n == 0 {
		n = 1
	}
	return n
}

func childListen(addr string) net.Listener {
	// The port is fixed across incarnations so peers can find this
	// process again after a SIGKILL; retry briefly while the kernel
	// releases the dead incarnation's socket.
	var lastErr error
	for i := 0; i < 100; i++ {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			return l
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "child: listen %s: %v\n", addr, lastErr)
	os.Exit(1)
	return nil
}

// fedShardChild is one re-exec'd metascheduler shard: journal + held
// recovery + federation member endpoints.
func fedShardChild() {
	name := os.Getenv(fedNameEnv)
	dir := os.Getenv(fedDirEnv)
	routerURL := os.Getenv(fedRouterEnv)
	seed := childEnvSeed()

	jnl, recovered, err := journal.Open(journal.Options{
		Dir: dir, Fsync: journal.FsyncAlways, IsTerminal: service.Terminal,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard %s: journal: %v\n", name, err)
		os.Exit(1)
	}
	var client *http.Client
	if os.Getenv(fedFaultsEnv) == "1" {
		// The shard→router direction gets mild ack-loss/dup faults too:
		// terminal notices and join handshakes must survive redelivery.
		client = &http.Client{Timeout: 2 * time.Second, Transport: chaostest.NewFaultTransport(chaostest.FaultPlan{
			Seed: seed + fnv1a(name), Drop: 0.05, AckLoss: 0.05, Dup: 0.05,
		}, nil)}
	}
	member := NewMember(MemberConfig{
		Shard: name, Router: routerURL, Client: client,
		RetryBase: 50 * time.Millisecond, RetryCap: time.Second, Seed: seed,
		Logf: func(f string, a ...any) { fmt.Fprintf(os.Stderr, "shard %s: "+f+"\n", append([]any{name}, a...)...) },
	})
	svc, err := service.New(service.Config{
		Env:           testEnv(),
		Sched:         metasched.Config{Seed: seed},
		QueueCap:      256,
		Journal:       jnl,
		HoldRecovered: true,
		OnTerminal:    member.Terminal,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard %s: new: %v\n", name, err)
		os.Exit(1)
	}
	if _, err := svc.Restore(recovered); err != nil {
		fmt.Fprintf(os.Stderr, "shard %s: restore: %v\n", name, err)
		os.Exit(1)
	}
	svc.Start()
	member.Bind(svc)
	member.Start()

	l := childListen(os.Getenv(fedAddrEnv))
	go http.Serve(l, member.Handler(svc.Handler()))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	<-sigc
	if err := svc.Drain(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "shard %s: drain: %v\n", name, err)
		os.Exit(1)
	}
	member.Close()
	if err := jnl.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "shard %s: close journal: %v\n", name, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// fedRouterChild is the re-exec'd front tier: journaled router over HTTP
// shards, with per-link fault transports and a seeded sever scheduler.
func fedRouterChild() {
	dir := os.Getenv(fedDirEnv)
	seed := childEnvSeed()
	faultsOn := os.Getenv(fedFaultsEnv) == "1"

	jnl, recovered, err := journal.Open(journal.Options{
		Dir: dir, Fsync: journal.FsyncAlways, IsTerminal: service.Terminal,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "router: journal: %v\n", err)
		os.Exit(1)
	}
	var shards []ShardClient
	var links []*chaostest.FaultTransport
	for _, kv := range strings.Split(os.Getenv(fedShardsEnv), ",") {
		name, url, ok := strings.Cut(kv, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "router: bad shard spec %q\n", kv)
			os.Exit(1)
		}
		client := &http.Client{}
		if faultsOn {
			ft := chaostest.NewFaultTransport(chaostest.FaultPlan{
				Seed: seed + fnv1a(name), Drop: 0.1, AckLoss: 0.1, Dup: 0.1,
				Delay: 0.2, DelayMax: 150 * time.Millisecond,
			}, nil)
			links = append(links, ft)
			client.Transport = ft
		}
		shards = append(shards, NewHTTPShard(name, url, client))
	}
	r, err := New(Config{
		Shards:            shards,
		Journal:           jnl,
		Seed:              seed,
		HeartbeatInterval: 100 * time.Millisecond,
		Breaker:           breaker.Config{Threshold: 5},
		RetryBudget:       3,
		RetryBase:         50 * time.Millisecond,
		RetryCap:          500 * time.Millisecond,
		HandoffTimeout:    time.Second,
		Logf:              func(f string, a ...any) { fmt.Fprintf(os.Stderr, "router: "+f+"\n", a...) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "router: new: %v\n", err)
		os.Exit(1)
	}
	if _, err := r.Restore(recovered); err != nil {
		fmt.Fprintf(os.Stderr, "router: restore: %v\n", err)
		os.Exit(1)
	}
	r.Start()

	if faultsOn && len(links) > 0 {
		// Seeded partition scheduler: sever one link at a time for a
		// window shorter than the death timeout about half the time, and
		// longer (forcing a death + revoke sweep) the rest.
		go func() {
			pr := rand.New(rand.NewSource(int64(seed)))
			for {
				time.Sleep(time.Duration(200+pr.Intn(400)) * time.Millisecond)
				ft := links[pr.Intn(len(links))]
				ft.Sever(true)
				time.Sleep(time.Duration(200+pr.Intn(600)) * time.Millisecond)
				ft.Sever(false)
			}
		}()
	}

	l := childListen(os.Getenv(fedAddrEnv))
	go http.Serve(l, r.Handler())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	<-sigc
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "router: drain: %v\n", err)
		os.Exit(1)
	}
	if err := jnl.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "router: close journal: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func spawnFed(t *testing.T, role, name, dir, addr string, extraEnv ...string) *chaostest.Proc {
	t.Helper()
	env := append([]string{fedNameEnv + "=" + name, fedDirEnv + "=" + dir, fedAddrEnv + "=" + addr}, extraEnv...)
	return chaostest.Spawn(t, fedChildEnv, role, env, chaostest.Healthz(addr))
}

// freeAddr reserves a distinct loopback port.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func fedSubmit(addr, id string, deadline int64) (int, error) {
	body, _ := json.Marshal(SubmitRequest{Job: testJob(id, deadline), Strategy: "S1"})
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

func fedJobs(t *testing.T, addr string) map[string]service.Record {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/jobs")
	if err != nil {
		t.Fatalf("list jobs: %v", err)
	}
	defer resp.Body.Close()
	var views []service.Record
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatalf("decode jobs: %v", err)
	}
	out := make(map[string]service.Record, len(views))
	for _, v := range views {
		out[v.ID] = v
	}
	return out
}

func shardJobs(t *testing.T, addr string) map[string]service.Record {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/jobs")
	if err != nil {
		t.Fatalf("list shard jobs: %v", err)
	}
	defer resp.Body.Close()
	var recs []service.Record
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatalf("decode shard jobs: %v", err)
	}
	out := make(map[string]service.Record, len(recs))
	for _, r := range recs {
		out[r.ID] = r
	}
	return out
}

func TestFederationPartitionChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos harness skipped in -short")
	}
	cycles := 20
	if v := os.Getenv("GRIDFED_CHAOS_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("GRIDFED_CHAOS_CYCLES: %v", err)
		}
		cycles = n
	}
	seed := int64(1)
	if v := os.Getenv("GRIDFED_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("GRIDFED_CHAOS_SEED: %v", err)
		}
		seed = n
	}
	rng := rand.New(rand.NewSource(seed))

	const nShards = 2
	shardDirs := make([]string, nShards)
	shardAddrs := make([]string, nShards)
	shardNames := make([]string, nShards)
	var specs []string
	for i := 0; i < nShards; i++ {
		shardDirs[i] = t.TempDir()
		shardAddrs[i] = freeAddr(t)
		shardNames[i] = fmt.Sprintf("s%d", i)
		specs = append(specs, shardNames[i]+"=http://"+shardAddrs[i])
	}
	routerDir := t.TempDir()
	routerAddr := freeAddr(t)
	routerURL := "http://" + routerAddr
	shardSpec := strings.Join(specs, ",")

	seedEnv := fedSeedEnv + "=" + strconv.FormatInt(seed, 10)
	spawnShard := func(i int, faults string) *chaostest.Proc {
		return spawnFed(t, "shard", shardNames[i], shardDirs[i], shardAddrs[i],
			fedRouterEnv+"="+routerURL, seedEnv, fedFaultsEnv+"="+faults)
	}
	spawnRouter := func(faults string) *chaostest.Proc {
		return spawnFed(t, "router", "router", routerDir, routerAddr,
			fedShardsEnv+"="+shardSpec, seedEnv, fedFaultsEnv+"="+faults)
	}

	shards := make([]*chaostest.Proc, nShards)
	for i := range shards {
		shards[i] = spawnShard(i, "1")
	}
	router := spawnRouter("1")

	accepted := map[string]bool{}
	var acceptedOrder []string

	for cycle := 0; cycle < cycles; cycle++ {
		// A seeded burst of jobs; roughly one in six is infeasible so the
		// rejected path stays under chaos too.
		for i, n := 0, 2+rng.Intn(4); i < n; i++ {
			id := fmt.Sprintf("c%d-j%d", cycle, i)
			deadline := int64(60)
			if rng.Intn(6) == 0 {
				deadline = 1
			}
			code, err := fedSubmit(routerAddr, id, deadline)
			if err != nil {
				continue // torn by a concurrent router kill: never acknowledged
			}
			switch code {
			case http.StatusAccepted:
				accepted[id] = true
				acceptedOrder = append(acceptedOrder, id)
			case http.StatusServiceUnavailable, http.StatusTooManyRequests:
				// backpressure: owes us nothing
			default:
				t.Fatalf("cycle %d: submit %s = %d\nrouter output:\n%s", cycle, id, code, router.Output())
			}
		}
		// Duplicate probe: an accepted ID must stay refused across any
		// combination of restarts and partitions.
		if len(acceptedOrder) > 0 {
			dup := acceptedOrder[rng.Intn(len(acceptedOrder))]
			if code, err := fedSubmit(routerAddr, dup, 60); err == nil &&
				code != http.StatusConflict && code != http.StatusServiceUnavailable {
				t.Fatalf("cycle %d: resubmit of %s = %d, want 409", cycle, dup, code)
			}
		}

		time.Sleep(time.Duration(rng.Intn(120)) * time.Millisecond)

		switch action := rng.Intn(10); {
		case action < 5: // SIGKILL + restart one shard
			i := rng.Intn(nShards)
			shards[i].Kill(t)
			time.Sleep(time.Duration(rng.Intn(200)) * time.Millisecond)
			shards[i] = spawnShard(i, "1")
		case action < 7: // SIGKILL + restart the router
			router.Kill(t)
			// Zero accepted-job loss, part one: a 202 means the accept
			// was fsynced into the router journal before the response.
			rec, err := journal.Recover(routerDir)
			if err != nil {
				t.Fatalf("cycle %d: router journal unreadable: %v", cycle, err)
			}
			onDisk := map[string]bool{}
			for _, js := range rec.Jobs {
				onDisk[js.Job] = true
			}
			for id := range accepted {
				if !onDisk[id] {
					t.Fatalf("cycle %d: accepted job %s missing from router journal after SIGKILL", cycle, id)
				}
			}
			router = spawnRouter("1")
		case action == 7: // shard and router die together
			i := rng.Intn(nShards)
			shards[i].Kill(t)
			router.Kill(t)
			router = spawnRouter("1")
			shards[i] = spawnShard(i, "1")
		default: // no kill this cycle; partitions and faults keep running
		}
	}

	// Heal the fleet: restart everything with fault injection off and let
	// the recovery ladder finish its work.
	router.Kill(t)
	for i := range shards {
		shards[i].Kill(t)
		shards[i] = spawnShard(i, "0")
	}
	router = spawnRouter("0")

	deadline := time.Now().Add(120 * time.Second)
	for {
		views := fedJobs(t, routerAddr)
		pending := 0
		for id := range accepted {
			v, ok := views[id]
			if !ok {
				t.Fatalf("accepted job %s lost from router ledger", id)
			}
			if !service.Terminal(v.State) {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			for id := range accepted {
				if v := views[id]; !service.Terminal(v.State) {
					t.Logf("stuck: %+v", v)
				}
			}
			t.Fatalf("%d accepted jobs still non-terminal\nrouter output:\n%s", pending, router.Output())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Zero double-execution: each accepted job has a non-revoked terminal
	// record on at most one shard — exactly one when it completed or was
	// rejected — and the router fate matches that shard's ledger.
	views := fedJobs(t, routerAddr)
	ledgers := make([]map[string]service.Record, nShards)
	for i := range shards {
		ledgers[i] = shardJobs(t, shardAddrs[i])
	}
	execStates := map[string]bool{service.StateCompleted: true, service.StateRejected: true}
	for id := range accepted {
		v := views[id]
		var holders []string
		for i := range ledgers {
			if rec, ok := ledgers[i][id]; ok && execStates[rec.State] {
				holders = append(holders, shardNames[i])
				if execStates[v.State] && rec.State != v.State {
					t.Errorf("job %s: router says %q, shard %s says %q", id, v.State, shardNames[i], rec.State)
				}
			}
		}
		if len(holders) > 1 {
			t.Errorf("job %s executed on %d shards: %v", id, len(holders), holders)
		}
		if execStates[v.State] && len(holders) != 1 {
			t.Errorf("job %s is %q at the router but on %d shard ledgers", id, v.State, len(holders))
		}
	}

	// Graceful teardown: the router drains clean, then the shards.
	if err := router.Terminate(); err != nil {
		t.Fatalf("router drain failed: %v\noutput:\n%s", err, router.Output())
	}
	for i, p := range shards {
		if err := p.Terminate(); err != nil {
			t.Fatalf("shard %d drain failed: %v\noutput:\n%s", i, err, p.Output())
		}
	}
	t.Logf("chaos: %d cycles, %d accepted, all terminal exactly once", cycles, len(accepted))
}
