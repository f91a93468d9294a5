package federation

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/service"
)

// testEnv builds the usual two-domain, four-tier environment.
func testEnv() *resource.Environment {
	perfs := []float64{1.0, 0.5, 0.33, 0.27}
	var nodes []*resource.Node
	id := 0
	for d := 0; d < 2; d++ {
		for _, p := range perfs {
			nodes = append(nodes, resource.NewNode(resource.NodeID(id),
				fmt.Sprintf("n%d", id), p, fmt.Sprintf("dom-%d", d)))
			id++
		}
	}
	return resource.NewEnvironment(nodes)
}

// fedShard is one in-process shard: an auto-mode service whose terminal
// stream feeds the router directly, standing in for the HTTP member.
type fedShard struct {
	name  string
	svc   *service.Server
	local *LocalShard
}

// newFedShards builds n shards whose OnTerminal hooks deliver to the
// router bound later via bind().
func newFedShards(t *testing.T, n int, rt **Router) []*fedShard {
	t.Helper()
	shards := make([]*fedShard, n)
	for i := range shards {
		name := fmt.Sprintf("s%d", i)
		svc, err := service.New(service.Config{
			Env:   testEnv(),
			Sched: metasched.Config{Seed: uint64(i) + 1},
			OnTerminal: func(rec service.Record) {
				if r := *rt; r != nil {
					go r.HandleTerminal(&TerminalNotice{Shard: name, Job: rec.ID, State: rec.State, Reason: rec.Reason})
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = &fedShard{name: name, svc: svc, local: NewLocalShard(name, svc)}
	}
	return shards
}

func waitQuiesced(t *testing.T, r *Router, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !r.Quiesced() {
		if time.Now().After(deadline) {
			for _, j := range r.Jobs() {
				if !service.Terminal(j.State) {
					t.Logf("stuck: %+v", j)
				}
			}
			t.Fatal("router never quiesced")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAsyncDispatchAcrossShards pushes jobs through a three-shard fleet
// and checks every job completes on exactly the shard the ring owns it to.
func TestAsyncDispatchAcrossShards(t *testing.T) {
	var rt *Router
	shards := newFedShards(t, 3, &rt)
	var clients []ShardClient
	for _, s := range shards {
		clients = append(clients, s.local)
		s.svc.Start()
	}
	r, err := New(Config{Shards: clients, Seed: 7, HeartbeatInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	r.Start()
	defer r.Close()

	const n = 30
	for i := 0; i < n; i++ {
		if _, err := r.Submit(testJob(fmt.Sprintf("job-%d", i), 60), "S1", 0); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitQuiesced(t, r, 10*time.Second)

	ring, _ := NewRing([]string{"s0", "s1", "s2"})
	completed := 0
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("job-%d", i)
		view, ok := r.Job(id)
		if !ok || view.State != service.StateCompleted {
			t.Fatalf("job %s = %+v, want completed", id, view)
		}
		if view.Shard != ring.Walk(id)[0] {
			t.Errorf("job %s ran on %s, ring owner %s", id, view.Shard, ring.Walk(id)[0])
		}
		// Exactly one shard's ledger has the job.
		holders := 0
		for _, s := range shards {
			if _, ok := s.svc.Job(id); ok {
				holders++
			}
		}
		if holders != 1 {
			t.Errorf("job %s is on %d shards", id, holders)
		}
		completed++
	}
	if m := r.Metrics(); m.Completed != uint64(completed) || m.Reallocated != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	for _, s := range shards {
		_ = s.svc.Drain(context.Background())
	}
}

// flakyShard scripts transport failures: handoffs and pings fail while
// broken, but revokes answer from the ledger — the "shard unreachable for
// placement" case — unless severRevokes cuts them too.
type flakyShard struct {
	*LocalShard
	severRevokes bool
	mu           sync.Mutex
	broken       bool
	tried        int
}

func (f *flakyShard) setBroken(b bool) {
	f.mu.Lock()
	f.broken = b
	f.mu.Unlock()
}

func (f *flakyShard) Handoff(ctx context.Context, h *Handoff) (*HandoffResult, error) {
	f.mu.Lock()
	f.tried++
	broken := f.broken
	f.mu.Unlock()
	if broken {
		return nil, fmt.Errorf("flaky: connection refused")
	}
	return f.LocalShard.Handoff(ctx, h)
}

func (f *flakyShard) Revoke(ctx context.Context, req *RevokeRequest) (*RevokeResult, error) {
	f.mu.Lock()
	broken := f.broken
	f.mu.Unlock()
	if broken && f.severRevokes {
		return nil, fmt.Errorf("flaky: connection refused")
	}
	return f.LocalShard.Revoke(ctx, req)
}

func (f *flakyShard) Ping(ctx context.Context) error {
	f.mu.Lock()
	broken := f.broken
	f.mu.Unlock()
	if broken {
		return fmt.Errorf("flaky: connection refused")
	}
	return f.LocalShard.Ping(ctx)
}

// TestRetryExhaustionReallocatesThroughRevoke pins the last rung of the
// recovery ladder: a shard that fails every handoff attempt loses the job
// — but only AFTER a confirmed revoke planted a tombstone there — and a
// survivor runs it.
func TestRetryExhaustionReallocatesThroughRevoke(t *testing.T) {
	var rt *Router
	shards := newFedShards(t, 2, &rt)
	for _, s := range shards {
		s.svc.Start()
	}
	flaky := &flakyShard{LocalShard: shards[0].local}
	flaky.setBroken(true)
	r, err := New(Config{
		Shards:            []ShardClient{flaky, shards[1].local},
		Seed:              11,
		RetryBudget:       2,
		RetryBase:         5 * time.Millisecond,
		HeartbeatInterval: time.Hour, // isolate: no death sweep in this test
	})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	r.Start()
	defer r.Close()

	// Find an ID the ring assigns to the flaky shard s0.
	ring, _ := NewRing([]string{"s0", "s1"})
	id := ""
	for i := 0; ; i++ {
		cand := fmt.Sprintf("job-%d", i)
		if ring.Walk(cand)[0] == "s0" {
			id = cand
			break
		}
	}
	if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	// Handoffs to s0 fail; revoke still answers (the shard process is up,
	// only the handoff path is severed) and plants a tombstone.
	waitQuiesced(t, r, 10*time.Second)

	view, _ := r.Job(id)
	if view.State != service.StateCompleted || view.Shard != "s1" {
		t.Fatalf("job = %+v, want completed on s1", view)
	}
	// The tombstone is durable at s0: a late handoff replay is refused.
	flaky.setBroken(false)
	res, err := flaky.Handoff(context.Background(), &Handoff{Key: id, Job: testJob(id, 60), Strategy: "S1"})
	if err != nil || res.Accepted || !res.Duplicate || res.State != service.StateRevoked {
		t.Fatalf("late replay after tombstone = (%+v, %v)", res, err)
	}
	if m := r.Metrics(); m.Reallocated != 1 || m.Revocations != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if got, _ := shards[1].svc.Job(id); got.State != service.StateCompleted {
		t.Fatalf("s1 ledger = %+v", got)
	}
}

// TestDeadShardSweep pins heartbeat death detection: a shard that stops
// answering pings gets its bound jobs revoked and reallocated, and the
// survivors keep admitting within one heartbeat timeout.
func TestDeadShardSweep(t *testing.T) {
	var rt *Router
	shards := newFedShards(t, 2, &rt)
	for _, s := range shards {
		s.svc.Start()
	}
	flaky := &flakyShard{LocalShard: shards[0].local, severRevokes: true}
	// s0 accepts handoffs but its service runs in manual mode and is never
	// stepped, so accepted jobs sit queued (revocable) when it "dies".
	stalled, err := service.New(service.Config{Env: testEnv(), Sched: metasched.Config{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	flaky.LocalShard = NewLocalShard("s0", stalled)

	r, err := New(Config{
		Shards:            []ShardClient{flaky, shards[1].local},
		Seed:              13,
		HeartbeatInterval: 20 * time.Millisecond,
		Breaker:           breaker.Config{Threshold: 3},
		RetryBase:         5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	r.Start()
	defer r.Close()

	ring, _ := NewRing([]string{"s0", "s1"})
	var s0jobs, s1jobs []string
	for i := 0; len(s0jobs) < 3 || len(s1jobs) < 3; i++ {
		id := fmt.Sprintf("job-%d", i)
		if ring.Walk(id)[0] == "s0" {
			s0jobs = append(s0jobs, id)
		} else {
			s1jobs = append(s1jobs, id)
		}
		if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	// Give dispatch a moment to bind s0's jobs, then kill its network.
	time.Sleep(100 * time.Millisecond)
	flaky.setBroken(true)

	// Death after 3 failed pings or handoffs; revokes then fail too
	// (broken), so jobs stay safely in revoking until the shard "restarts".
	time.Sleep(150 * time.Millisecond)
	if closed(t, r, "s0") {
		t.Fatal("s0's breaker still closed after failed heartbeats")
	}
	// Survivor keeps serving while s0 is dead.
	extra := "extra-s1"
	for i := 0; ; i++ {
		cand := fmt.Sprintf("extra-%d", i)
		if ring.Walk(cand)[0] == "s1" {
			extra = cand
			break
		}
	}
	if _, err := r.Submit(testJob(extra, 60), "S1", 0); err != nil {
		t.Fatal(err)
	}

	// Shard restarts: network back, ledger intact, engine still stalled —
	// revokes now confirm and the jobs move to s1.
	flaky.setBroken(false)
	waitQuiesced(t, r, 15*time.Second)

	for _, id := range append(append([]string{}, s0jobs...), extra) {
		view, _ := r.Job(id)
		if view.State != service.StateCompleted || view.Shard != "s1" {
			t.Fatalf("job %s = %+v, want completed on s1", id, view)
		}
		// s0 must hold a revoked entry or nothing — never an execution.
		if rec, ok := stalled.Job(id); ok && rec.State != service.StateRevoked {
			t.Fatalf("s0 ledger for %s = %q", id, rec.State)
		}
	}
	if deaths := r.th.deaths.Value(); deaths != 1 {
		t.Fatalf("grid_fed_shard_deaths_total = %d, want 1", deaths)
	}
}

// TestRouterJournalRecovery SIGKILL-simulates the router: a journaled
// binding survives and is sent again to its shard, whose answer settles
// it, and in-doubt jobs resolve through revocation — never by double
// placement.
func TestRouterJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	openJournal := func() (*journal.Journal, *journal.Recovery) {
		j, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever, IsTerminal: service.Terminal})
		if err != nil {
			t.Fatal(err)
		}
		return j, rec
	}

	var rt *Router
	shards := newFedShards(t, 2, &rt)
	for _, s := range shards {
		s.svc.Start()
	}
	clients := []ShardClient{shards[0].local, shards[1].local}

	j1, _ := openJournal()
	r1, err := New(Config{Shards: clients, Seed: 3, Journal: j1})
	if err != nil {
		t.Fatal(err)
	}
	rt = r1
	r1.Start()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := r1.Submit(testJob(fmt.Sprintf("job-%d", i), 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	waitQuiesced(t, r1, 10*time.Second)
	// Submit one more and "crash" immediately: the accept is journaled
	// queued, dispatch may or may not have started.
	if _, err := r1.Submit(testJob("in-doubt", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	r1.Close() // SIGKILL stand-in: no drain, no terminal wait
	j1.Close()

	j2, recovered := openJournal()
	defer j2.Close()
	r2, err := New(Config{Shards: clients, Seed: 3, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	rt = r2
	restored, err := r2.Restore(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if restored != n+1 {
		t.Fatalf("restored %d records, want %d", restored, n+1)
	}
	r2.Start()
	defer r2.Close()
	waitQuiesced(t, r2, 10*time.Second)

	for i := 0; i < n; i++ {
		id := fmt.Sprintf("job-%d", i)
		view, ok := r2.Job(id)
		if !ok || view.State != service.StateCompleted {
			t.Fatalf("job %s after recovery = %+v", id, view)
		}
	}
	view, _ := r2.Job("in-doubt")
	if view.State != service.StateCompleted {
		t.Fatalf("in-doubt job = %+v, want completed", view)
	}
	// Exactly-once: the in-doubt job exists on exactly one shard as a
	// non-revoked record.
	executions := 0
	for _, s := range shards {
		if rec, ok := s.svc.Job("in-doubt"); ok && rec.State == service.StateCompleted {
			executions++
		}
	}
	if executions != 1 {
		t.Fatalf("in-doubt job executed on %d shards", executions)
	}
}

// checkLive fails unless the router's count of non-terminal entries equals
// a walk of its ledger.
func checkLive(t *testing.T, r *Router, when string) int {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	walk := 0
	for _, rec := range r.records {
		if !service.Terminal(rec.State) {
			walk++
		}
	}
	if r.live != walk {
		t.Fatalf("%s: live = %d, a ledger walk counts %d", when, r.live, walk)
	}
	return walk
}

// TestLiveCountMatchesTheLedger holds the count Quiesced and Drain read
// equal to a walk of the ledger: while jobs are submitted and dispatched,
// across a reallocation off a shard whose handoffs fail, after a restore
// from the journal, and after a drain, which returns on the count's
// fall to zero, well before its context ends.
func TestLiveCountMatchesTheLedger(t *testing.T) {
	dir := t.TempDir()
	var rt *Router
	shards := newFedShards(t, 2, &rt)
	for _, s := range shards {
		s.svc.Start()
	}
	flaky := &flakyShard{LocalShard: shards[0].local}
	flaky.setBroken(true)
	clients := []ShardClient{flaky, shards[1].local}
	cfg := func(j *journal.Journal) Config {
		return Config{Shards: clients, Seed: 11, Journal: j, RetryBudget: 2,
			RetryBase: 5 * time.Millisecond, HeartbeatInterval: time.Hour}
	}

	j1, _ := openTestJournal(t, dir)
	r1, err := New(cfg(j1))
	if err != nil {
		t.Fatal(err)
	}
	rt = r1
	r1.Start()
	for i := 0; i < 8; i++ {
		if _, err := r1.Submit(testJob(fmt.Sprintf("job-%d", i), 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
		checkLive(t, r1, "after a submit")
	}
	deadline := time.Now().Add(10 * time.Second)
	for checkLive(t, r1, "while dispatching") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("router never quiesced")
		}
		time.Sleep(time.Millisecond)
	}
	if m := r1.Metrics(); m.Reallocated == 0 {
		t.Fatalf("metrics = %+v: no job was reallocated off the flaky shard", m)
	}
	// Two more, never dispatched: r1 stops before it sends them.
	r1.Close()
	for _, id := range []string{"late-0", "late-1"} {
		if _, err := r1.Submit(testJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := checkLive(t, r1, "at the crash"); n != 2 {
		t.Fatalf("%d live entries at the crash, want 2", n)
	}
	j1.Close()

	flaky.setBroken(false)
	j2, recovered := openTestJournal(t, dir)
	defer j2.Close()
	r2, err := New(cfg(j2))
	if err != nil {
		t.Fatal(err)
	}
	rt = r2
	if _, err := r2.Restore(recovered); err != nil {
		t.Fatal(err)
	}
	if n := checkLive(t, r2, "after the restore"); n != 2 {
		t.Fatalf("%d live entries after the restore, want 2", n)
	}
	r2.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r2.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkLive(t, r2, "after the drain")
	if !r2.Quiesced() {
		t.Fatal("not quiesced after the drain")
	}
}

// recoverJournal writes recs to a fresh journal and recovers it, as a
// restarted router reads its own.
func recoverJournal(t *testing.T, recs ...journal.Record) *journal.Recovery {
	t.Helper()
	dir := t.TempDir()
	jnl, _ := openTestJournal(t, dir)
	for _, rec := range recs {
		if _, err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	return recovered
}

// TestRestoredBindingIsSentWhereItIsBound restarts a router whose journal
// ends in handed@s0 at epoch 0 and checks that the binding is settled by
// sending it to s0 again: s0's answer to the duplicate frame, or its
// notice where the router holds no frame to send, decides where the job
// runs, and it runs exactly once.
func TestRestoredBindingIsSentWhereItIsBound(t *testing.T) {
	const id = "job"
	wire := testJob(id, 60)
	bound := []journal.Record{
		{Job: id, State: StateQueued, Strategy: "S1", Wire: &wire},
		{Job: id, State: StateHanded, Shard: "s0"},
	}
	adopted := []journal.Record{
		{Job: id, State: StateHanded, Shard: "s0", Reason: "adopted from shard join"},
	}
	for _, row := range []struct {
		name    string
		journal []journal.Record
		// s0 prepares what s0 holds before the router restarts; live runs
		// once the restored router is started.
		s0, live func(t *testing.T, svc *service.Server)
		// Where the job completes, and what settling it cost.
		shard                   string
		epoch                   int
		handoffs, reallocations uint64
	}{
		{name: "never-seen", journal: bound,
			shard: "s0", handoffs: 1},
		{name: "already-completed", journal: bound,
			s0: func(t *testing.T, svc *service.Server) {
				ApplyHandoff(context.Background(), svc, &Handoff{Key: id, Job: wire, Strategy: "S1"})
				deadline := time.Now().Add(10 * time.Second)
				for rec, _ := svc.Job(id); rec.State != service.StateCompleted; rec, _ = svc.Job(id) {
					if time.Now().After(deadline) {
						t.Fatalf("s0 never completed the job: %+v", rec)
					}
					time.Sleep(time.Millisecond)
				}
			},
			shard: "s0", handoffs: 1},
		{name: "revoked-tombstone", journal: bound,
			s0:    func(t *testing.T, svc *service.Server) { ApplyRevoke(svc, &RevokeRequest{Key: id, Reason: "test"}) },
			shard: "s1", epoch: 1, handoffs: 2, reallocations: 1},
		{name: "adopted-without-wire", journal: adopted,
			live: func(t *testing.T, svc *service.Server) {
				ApplyHandoff(context.Background(), svc, &Handoff{Key: id, Job: wire, Strategy: "S1"})
			},
			shard: "s0"},
	} {
		t.Run(row.name, func(t *testing.T) {
			var rt *Router
			shards := newFedShards(t, 2, &rt)
			for _, s := range shards {
				s.svc.Start()
				defer s.svc.Drain(context.Background())
			}
			if row.s0 != nil {
				row.s0(t, shards[0].svc) // no router yet: a notice goes nowhere
			}
			r, err := New(Config{Shards: []ShardClient{shards[0].local, shards[1].local}, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			rt = r
			if _, err := r.Restore(recoverJournal(t, row.journal...)); err != nil {
				t.Fatal(err)
			}
			r.Start()
			defer r.Close()
			if row.live != nil {
				row.live(t, shards[0].svc)
			}
			waitQuiesced(t, r, 10*time.Second)

			view, _ := r.Job(id)
			if view.State != service.StateCompleted || view.Shard != row.shard || view.Epoch != row.epoch {
				t.Errorf("job = %+v, want completed on %s at epoch %d", view, row.shard, row.epoch)
			}
			if got := r.th.handoffs.Value(); got != row.handoffs {
				t.Errorf("grid_fed_handoffs_total = %d, want %d", got, row.handoffs)
			}
			if got := r.th.reallocated.Value(); got != row.reallocations {
				t.Errorf("grid_fed_reallocations_total = %d, want %d", got, row.reallocations)
			}
			executions := 0
			for _, s := range shards {
				if rec, ok := s.svc.Job(id); ok && !service.Tombstone(rec.State) {
					executions++
				}
			}
			if executions != 1 {
				t.Errorf("job holds a live or finished record on %d shards, want 1", executions)
			}
		})
	}
}

// TestRestoreRequeuesBindingsOffTheFleet restores a revocation in doubt at
// a shard the fleet no longer lists: nothing can answer it there, so the
// job is queued again and dispatched to the fleet.
func TestRestoreRequeuesBindingsOffTheFleet(t *testing.T) {
	const id = "job"
	wire := testJob(id, 60)
	recovered := recoverJournal(t,
		journal.Record{Job: id, State: StateQueued, Strategy: "S1", Wire: &wire},
		journal.Record{Job: id, State: StateHanded, Shard: "old"},
		journal.Record{Job: id, State: StateRevoking, Shard: "old", Reason: inDoubt},
	)
	var rt *Router
	shards := newFedShards(t, 1, &rt)
	shards[0].svc.Start()
	defer shards[0].svc.Drain(context.Background())
	r, err := New(Config{Shards: []ShardClient{shards[0].local}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	defer r.Close()
	if _, err := r.Restore(recovered); err != nil {
		t.Fatal(err)
	}
	if view, _ := r.Job(id); view.State != StateQueued || view.Shard != "" {
		t.Fatalf("restored job = %+v, want queued and unbound", view)
	}
	r.Start()
	waitQuiesced(t, r, 10*time.Second)
	if view, _ := r.Job(id); view.State != service.StateCompleted || view.Shard != "s0" {
		t.Fatalf("job = %+v, want completed on s0", view)
	}
}

// TestTerminalEntryHoldsNoWire: the router keeps a job's wire form only
// while it may still hand the job off. The move to a terminal state drops
// it, and a restore hands it back to live entries alone.
func TestTerminalEntryHoldsNoWire(t *testing.T) {
	wireOf := func(r *Router, id string) *jobio.Job {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.records[id].wire
	}
	var rt *Router
	shards := newFedShards(t, 1, &rt)
	shards[0].svc.Start()
	defer shards[0].svc.Drain(context.Background())
	r, err := New(Config{Shards: []ShardClient{shards[0].local}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	r.Start()
	defer r.Close()
	if _, err := r.Submit(testJob("done", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	waitQuiesced(t, r, 10*time.Second)
	if view, _ := r.Job("done"); view.State != service.StateCompleted {
		t.Fatalf("job = %+v, want completed", view)
	}
	if wireOf(r, "done") != nil {
		t.Error("a completed entry still holds its wire form")
	}

	done, live := testJob("done", 60), testJob("live", 60)
	recovered := recoverJournal(t,
		journal.Record{Job: "done", State: StateQueued, Strategy: "S1", Wire: &done},
		journal.Record{Job: "done", State: service.StateCompleted, Shard: "s0"},
		journal.Record{Job: "live", State: StateQueued, Strategy: "S1", Wire: &live},
	)
	heir, err := New(Config{Shards: []ShardClient{shards[0].local}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer heir.Close()
	if _, err := heir.Restore(recovered); err != nil {
		t.Fatal(err)
	}
	if wireOf(heir, "done") != nil {
		t.Error("a restored completed entry holds its wire form")
	}
	if w := wireOf(heir, "live"); w == nil || w.Name != "live" {
		t.Errorf("the restored queued entry's wire form is %+v, want the journaled one", w)
	}
}

// TestJoinFromOutsideTheFleetChangesNothing: a join binds nothing, so one
// naming a shard the fleet does not list leaves the entry Submit left (the
// job bound to its home shard) as it was, with no journal record, and the
// job then completes on a fleet shard. The body is the one members once
// sent, which also named the jobs they held.
func TestJoinFromOutsideTheFleetChangesNothing(t *testing.T) {
	var rt *Router
	shards := newFedShards(t, 2, &rt)
	for _, s := range shards {
		s.svc.Start()
		defer s.svc.Drain(context.Background())
	}
	jnl, _ := openTestJournal(t, t.TempDir())
	defer jnl.Close()
	r, err := New(Config{Shards: []ShardClient{shards[0].local, shards[1].local}, Seed: 1, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	defer r.Close()
	submitted, err := r.Submit(testJob("job", 60), "S1", 0)
	if err != nil {
		t.Fatal(err)
	}

	lsn := jnl.Stats().NextLSN
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/federation/join",
		strings.NewReader(`{"shard":"outsider","held":["job"]}`)))
	if w.Code != http.StatusOK || w.Body.Len() != 0 {
		t.Fatalf("join answered %d %q, want a bare 200", w.Code, w.Body.String())
	}
	if view, _ := r.Job("job"); view != *submitted {
		t.Fatalf("after the join the job is %+v, want Submit's %+v", view, *submitted)
	}
	if n := jnl.Stats().NextLSN - lsn; n != 0 {
		t.Fatalf("the join appended %d router journal records, want none", n)
	}

	r.Start()
	waitQuiesced(t, r, 10*time.Second)
	if view, _ := r.Job("job"); view.State != service.StateCompleted || view.Shard != "s0" && view.Shard != "s1" {
		t.Fatalf("job = %+v, want completed on a fleet shard", view)
	}
}

// restoredShard is a shard restarted from a journal that holds each of ids
// queued at epoch: it holds them all (HoldRecovered), runs in manual mode, so
// nothing executes until the test calls Process, and notices its outcomes to
// the router rt points at. It returns the shard and its journal.
func restoredShard(t *testing.T, name string, rt **Router, epoch int, ids ...string) (*fedShard, *journal.Journal) {
	t.Helper()
	dir := t.TempDir()
	jnl, _ := openTestJournal(t, dir)
	for _, id := range ids {
		wire := testJob(id, 60)
		if _, err := jnl.Append(journal.Record{Job: id, State: service.StateQueued, Strategy: "S1", Wire: &wire, Epoch: epoch}); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()
	jnl, recovery := openTestJournal(t, dir)
	t.Cleanup(func() { jnl.Close() })
	svc, err := service.New(service.Config{
		Env: testEnv(), Sched: metasched.Config{Seed: 1}, Journal: jnl, HoldRecovered: true,
		OnTerminal: func(rec service.Record) {
			if r := *rt; r != nil {
				go r.HandleTerminal(&TerminalNotice{Shard: name, Job: rec.ID, State: rec.State, Reason: rec.Reason})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats, err := svc.Restore(recovery); err != nil || stats.Held != len(ids) {
		t.Fatalf("restore: %+v, %v; want %d held", stats, err, len(ids))
	}
	return &fedShard{name: name, svc: svc, local: NewLocalShard(name, svc)}, jnl
}

// queueDepth reads a shard's admission queue depth, where a held job is not.
func queueDepth(t *testing.T, svc *service.Server) float64 {
	t.Helper()
	return scrape(t, svc.Handler())["grid_service_queue_depth"]
}

// TestRejoinReleasesAHeldJobItsRouterResends: a restarted shard holds a job
// its router holds handed there. The join has the router resend the binding,
// the duplicate handoff releases the job, and the shard runs it exactly
// once. The release appends nothing to either tier's journal.
func TestRejoinReleasesAHeldJobItsRouterResends(t *testing.T) {
	var rt *Router
	s0, shardJnl := restoredShard(t, "s0", &rt, 0, "held")
	s1 := newFedShards(t, 2, &rt)[1]
	routerJnl, _ := openTestJournal(t, t.TempDir())
	defer routerJnl.Close()
	r, err := New(Config{Shards: []ShardClient{s0.local, s1.local}, Seed: 3, Journal: routerJnl,
		HeartbeatInterval: 50 * time.Millisecond, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	r.mu.Lock()
	wire := testJob("held", 60)
	rec := r.newRecordLocked("held", "S1", 0, StateHanded)
	rec.Shard, rec.wire = "s0", &wire
	r.mu.Unlock()
	r.Start()
	defer r.Close()

	if got := queueDepth(t, s0.svc); got != 0 {
		t.Fatalf("before the join s0 queues %v jobs, want the job held", got)
	}
	routerLSN, shardLSN := routerJnl.Stats().NextLSN, shardJnl.Stats().NextLSN
	r.HandleJoin(&JoinRequest{Shard: "s0"})
	deadline := time.Now().Add(5 * time.Second)
	for queueDepth(t, s0.svc) != 1 || r.th.handoffs.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("after the join s0 queues %v jobs and the router sent %d handoffs; want the held job resent and released",
				queueDepth(t, s0.svc), r.th.handoffs.Value())
		}
		time.Sleep(time.Millisecond)
	}
	if n := routerJnl.Stats().NextLSN - routerLSN; n != 0 {
		t.Errorf("the release appended %d router journal records, want none", n)
	}
	if n := shardJnl.Stats().NextLSN - shardLSN; n != 0 {
		t.Errorf("the release appended %d shard journal records, want none", n)
	}
	if view, _ := r.Job("held"); view.State != StateHanded || view.Shard != "s0" {
		t.Errorf("after the release the router holds %+v, want it handed to s0", view)
	}

	if n := s0.svc.Process(-1); n != 1 {
		t.Fatalf("s0 processed %d jobs, want the released one", n)
	}
	s0.svc.Quiesce()
	waitQuiesced(t, r, 5*time.Second)
	// A second join resends the finished binding: its answer changes nothing.
	r.HandleJoin(&JoinRequest{Shard: "s0"})
	if n := s0.svc.Process(-1); n != 0 {
		t.Errorf("s0 processed %d more jobs after a second join, want none", n)
	}
	if view, _ := r.Job("held"); view.State != service.StateCompleted || view.Shard != "s0" || view.Epoch != 0 {
		t.Errorf("job = %+v, want completed on s0 at epoch 0", view)
	}
	if m := s0.svc.Metrics(); m.Completed != 1 {
		t.Errorf("s0 completed %d jobs, want 1", m.Completed)
	}
	if rec, ok := s1.svc.Job("held"); ok {
		t.Errorf("s1 holds %+v, want no record", rec)
	}
}

// TestRejoinLeavesARevokingHeldJobToItsRevocation: a restarted shard holds a
// job its router is revoking there. The join neither resends nor releases
// it; the revocation ends it revoked at the shard, and the router
// reallocates it to s1 at epoch 1, where it completes.
func TestRejoinLeavesARevokingHeldJobToItsRevocation(t *testing.T) {
	var rt *Router
	s0, _ := restoredShard(t, "s0", &rt, 0, "held")
	s1 := newFedShards(t, 2, &rt)[1]
	s1.svc.Start()
	defer s1.svc.Drain(context.Background())
	r, err := New(Config{Shards: []ShardClient{s0.local, s1.local}, Seed: 3,
		HeartbeatInterval: 50 * time.Millisecond, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	r.mu.Lock()
	wire := testJob("held", 60)
	rec := r.newRecordLocked("held", "S1", 0, StateRevoking)
	rec.Shard, rec.wire = "s0", &wire
	r.mu.Unlock()
	r.Start()
	defer r.Close()

	r.HandleJoin(&JoinRequest{Shard: "s0"})
	time.Sleep(50 * time.Millisecond)
	if got, sent := queueDepth(t, s0.svc), r.th.handoffs.Value(); got != 0 || sent != 0 {
		t.Fatalf("after the join s0 queues %v jobs and the router sent %d handoffs; want the job held and nothing sent", got, sent)
	}

	r.mu.Lock()
	r.pushLocked(rec)
	r.mu.Unlock()
	waitQuiesced(t, r, 10*time.Second)
	if view, _ := r.Job("held"); view.State != service.StateCompleted || view.Shard != "s1" || view.Epoch != 1 {
		t.Errorf("job = %+v, want completed on s1 at epoch 1", view)
	}
	if rec, _ := s0.svc.Job("held"); rec.State != service.StateRevoked {
		t.Errorf("s0 holds the job %s, want revoked", rec.State)
	}
	if n := s0.svc.Process(-1); n != 0 {
		t.Errorf("s0 processed %d jobs, want none", n)
	}
}

// TestTerminalNoticeIdempotentAndDrainedReallocates covers the notice
// handler's edge cases.
func TestTerminalNoticeEdgeCases(t *testing.T) {
	var rt *Router
	shards := newFedShards(t, 2, &rt)
	r, err := New(Config{Shards: []ShardClient{shards[0].local, shards[1].local}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rt = r

	r.mu.Lock()
	a := r.newRecordLocked("a", "S1", 0, StateHanded)
	a.Shard = "s0"
	b := r.newRecordLocked("b", "S1", 0, StateHanded)
	b.Shard = "s0"
	r.mu.Unlock()

	// Unknown job: ignored.
	r.HandleTerminal(&TerminalNotice{Shard: "s0", Job: "ghost", State: service.StateCompleted})
	// Revoked is shard-terminal, not job-terminal.
	r.HandleTerminal(&TerminalNotice{Shard: "s0", Job: "a", State: service.StateRevoked})
	if view, _ := r.Job("a"); view.State != StateHanded {
		t.Fatalf("revoked notice moved a to %q", view.State)
	}
	// Completed lands once; the repeat is a no-op.
	r.HandleTerminal(&TerminalNotice{Shard: "s0", Job: "a", State: service.StateCompleted, Reason: "ok"})
	r.HandleTerminal(&TerminalNotice{Shard: "s0", Job: "a", State: service.StateRejected, Reason: "late duplicate"})
	if view, _ := r.Job("a"); view.State != service.StateCompleted || view.Reason != "ok" {
		t.Fatalf("a = %+v", view)
	}
	if m := r.Metrics(); m.Completed != 1 {
		t.Fatalf("Completed = %d after duplicate notices", m.Completed)
	}
	// Drained releases ownership: the job requeues, banned from s0.
	r.HandleTerminal(&TerminalNotice{Shard: "s0", Job: "b", State: service.StateDrained})
	if view, _ := r.Job("b"); view.State != StateQueued || view.Shard != "" {
		t.Fatalf("b after drained notice = %+v", view)
	}
	r.mu.Lock()
	banned := r.records["b"].banned["s0"]
	r.mu.Unlock()
	if !banned {
		t.Fatal("drained shard not banned for b")
	}
}

// liveShard is a scripted shard for a started router. Pings fail while
// pingDown, or wait while held, and handoff and revoke transports fail while
// handoffDown and revokeDown; an answered handoff gets answer, and an
// answered revoke gets revoke's result, revoked when revoke is nil. It logs,
// in arrival order, every answered ping ("ping"), every handoff ("handoff
// <key>" or "handoff-failed <key>") and every revoke ("revoke <key>" or
// "revoke-failed <key>").
type liveShard struct {
	name   string
	answer HandoffResult
	revoke func(key string) RevokeResult

	mu                                sync.Mutex
	pingDown, handoffDown, revokeDown bool
	held                              chan struct{} // non-nil: pings wait for it to close
	log                               []string
}

func (s *liveShard) Name() string { return s.name }

func (s *liveShard) Ping(context.Context) error {
	s.mu.Lock()
	held := s.held
	s.mu.Unlock()
	if held != nil {
		<-held
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pingDown {
		return errUnreachable
	}
	s.log = append(s.log, "ping")
	return nil
}

func (s *liveShard) Handoff(_ context.Context, h *Handoff) (*HandoffResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.handoffDown {
		s.log = append(s.log, "handoff-failed "+h.Key)
		return nil, errUnreachable
	}
	s.log = append(s.log, "handoff "+h.Key)
	res := s.answer
	return &res, nil
}

func (s *liveShard) Revoke(_ context.Context, req *RevokeRequest) (*RevokeResult, error) {
	s.mu.Lock()
	if s.revokeDown {
		s.log = append(s.log, "revoke-failed "+req.Key)
		s.mu.Unlock()
		return nil, errUnreachable
	}
	s.log = append(s.log, "revoke "+req.Key)
	s.mu.Unlock()
	res := RevokeResult{Outcome: RevokeOutcomeRevoked, State: service.StateRevoked}
	if s.revoke != nil {
		res = s.revoke(req.Key)
	}
	return &res, nil
}

// hold makes the next ping wait, past its deadline, until the returned
// func is called.
func (s *liveShard) hold() (answer func()) {
	held := make(chan struct{})
	s.mu.Lock()
	s.held = held
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.held = nil
			s.mu.Unlock()
			close(held)
		})
	}
}

func (s *liveShard) set(pingDown, handoffDown, revokeDown bool) {
	s.mu.Lock()
	s.pingDown, s.handoffDown, s.revokeDown = pingDown, handoffDown, revokeDown
	s.mu.Unlock()
}

// first returns the index of entry's first line in the log, -1 when none,
// and how many lines are entry.
func (s *liveShard) first(entry string) (at, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at = -1
	for i, e := range s.log {
		if e == entry {
			if n == 0 {
				at = i
			}
			n++
		}
	}
	return at, n
}

func (s *liveShard) count(entry string) int {
	_, n := s.first(entry)
	return n
}

// homed returns n job IDs whose home on r's ring is shard.
func homed(r *Router, shard string, n int) []string {
	var ids []string
	for i := 0; len(ids) < n; i++ {
		if id := fmt.Sprintf("job-%d", i); r.ring.Walk(id)[0] == shard {
			ids = append(ids, id)
		}
	}
	return ids
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// trips reads grid_breaker_trips_total for shard's breaker.
func trips(t *testing.T, r *Router, shard string) float64 {
	t.Helper()
	return scrape(t, r.Handler())[`grid_breaker_trips_total{name="`+shard+`"}`]
}

// detectorRouter is a router over fleet whose breakers trip on a shard's
// second consecutive failure and hold it open 10 ms, then 20 ms.
func detectorRouter(t *testing.T, retryBudget int, fleet ...ShardClient) *Router {
	t.Helper()
	r, err := New(Config{
		Shards: fleet, Seed: 1,
		HeartbeatInterval: 5 * time.Millisecond,
		RetryBudget:       retryBudget, RetryBase: time.Millisecond, RetryCap: time.Millisecond,
		Breaker: breaker.Config{Threshold: 2, OpenBase: 10, OpenMax: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestOneOutageIsOneDeath: the trip that opens a shard's closed breaker
// declares it dead once. While the shard stays down, every half-open window
// ends in a failed ping or revoke that trips the breaker again; those
// re-trips count no death. Once the shard is back, each swept job is revoked
// once: one is rebound to the shard by its inflight answer, the other moves
// to the survivor.
func TestOneOutageIsOneDeath(t *testing.T) {
	s0 := &liveShard{name: "s0", answer: HandoffResult{Accepted: true, State: service.StateQueued}}
	s1 := &liveShard{name: "s1", answer: HandoffResult{Accepted: true, State: service.StateCompleted}}
	r := detectorRouter(t, 3, s0, s1)
	ids := homed(r, "s0", 2)
	rebound, moved := ids[0], ids[1]
	s0.revoke = func(key string) RevokeResult {
		if key == rebound {
			return RevokeResult{Outcome: RevokeOutcomeInFlight, State: service.StateScheduled}
		}
		return RevokeResult{Outcome: RevokeOutcomeRevoked, State: service.StateRevoked}
	}
	r.Start()
	defer r.Close()
	for _, id := range ids {
		if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both jobs handed to s0", func() bool {
		a, _ := r.Job(rebound)
		b, _ := r.Job(moved)
		return a.State == StateHanded && b.State == StateHanded
	})

	s0.set(true, false, true)
	waitFor(t, "s0's breaker to trip four times", func() bool { return trips(t, r, "s0") >= 4 })
	if deaths := r.th.deaths.Value(); deaths != 1 {
		t.Fatalf("grid_fed_shard_deaths_total = %d over one outage, want 1", deaths)
	}

	s0.set(false, false, false)
	waitFor(t, "a ping or an answered revoke to close s0's breaker", func() bool { return closed(t, r, "s0") })
	waitFor(t, "the inflight answer to rebind "+rebound, func() bool {
		view, _ := r.Job(rebound)
		return view.State == StateHanded
	})
	if view, _ := r.Job(rebound); view.Shard != "s0" {
		t.Fatalf("%s = %+v, want handed to s0 again after its inflight answer", rebound, view)
	}
	if n := s0.count("revoke " + rebound); n != 1 {
		t.Fatalf("%s was revoked %d times at s0, want once: a re-trip swept it again", rebound, n)
	}
	r.HandleTerminal(&TerminalNotice{Shard: "s0", Job: rebound, State: service.StateCompleted})
	waitQuiesced(t, r, 10*time.Second)
	for id, shard := range map[string]string{rebound: "s0", moved: "s1"} {
		if view, _ := r.Job(id); view.State != service.StateCompleted || view.Shard != shard {
			t.Errorf("%s = %+v, want completed on %s", id, view, shard)
		}
	}
	if n := s1.count("handoff " + moved); n != 1 {
		t.Errorf("s1 received %s %d times, want once", moved, n)
	}
	if completed, deaths := r.th.completed.Value(), r.th.deaths.Value(); completed != 2 || deaths != 1 {
		t.Errorf("completed %d, deaths %d; want 2 and 1", completed, deaths)
	}
}

// TestHandoffFailuresAloneDeclareDeath: a shard whose pings answer but
// whose handoff transport fails is declared dead by those failures alone.
// The dispatcher that saw the tripping failure sweeps every job handed to
// the shard into confirmed revocation — the two it had accepted before the
// failures began among them — before its own retry budget runs out, and
// every job then completes exactly once on the survivor.
func TestHandoffFailuresAloneDeclareDeath(t *testing.T) {
	s0 := &liveShard{name: "s0", answer: HandoffResult{Accepted: true, State: service.StateQueued}}
	s1 := &liveShard{name: "s1", answer: HandoffResult{Accepted: true, State: service.StateCompleted}}
	const budget = 5
	r := detectorRouter(t, budget, s0, s1)
	defer r.Close()
	ids := homed(r, "s0", 3)
	// Not started yet: no ping can reset the count between the failures.
	for i, id := range ids {
		if i == 2 {
			s0.set(false, true, false)
		}
		if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
		r.dispatch(id, 0)
	}
	r.dispatch(ids[2], 0) // the second attempt: each dispatch makes one
	if deaths := r.th.deaths.Value(); deaths != 1 {
		t.Fatalf("grid_fed_shard_deaths_total = %d after failed handoffs, want 1", deaths)
	}
	if n := s0.count("handoff-failed " + ids[2]); n != 2 {
		t.Fatalf("%d failed handoffs of %s, want 2: the trip's sweep ends the retries", n, ids[2])
	}
	for _, id := range ids {
		if view, _ := r.Job(id); view.State == StateHanded {
			t.Fatalf("%s = %+v after s0's death, want swept into revocation", id, view)
		}
	}

	r.Start()
	waitQuiesced(t, r, 10*time.Second)
	for _, id := range ids {
		if view, _ := r.Job(id); view.State != service.StateCompleted || view.Shard != "s1" {
			t.Errorf("%s = %+v, want completed on s1", id, view)
		}
		if n := s0.count("revoke " + id); n != 1 {
			t.Errorf("s0 revoked %s %d times, want once", id, n)
		}
	}
	// Each job reached completed once: lifecycle lets no entry leave it.
	if completed, deaths := r.th.completed.Value(), r.th.deaths.Value(); completed != 3 || deaths != 1 {
		t.Errorf("completed %d, deaths %d; want 3 and 1", completed, deaths)
	}
	// Pings kept answering, so one closes the breaker again.
	waitFor(t, "a ping to close s0's breaker", func() bool { return closed(t, r, "s0") })
}

// TestTrippedShardGetsNoHandoffUntilAPing: a job whose only shard is
// declared dead waits. Once the shard's open window ends with a ping still
// unanswered, its breaker stays half-open, and neither the router's own
// retries nor direct dispatches send a handoff as a probe; the first
// handoff follows the ping the shard answers.
func TestTrippedShardGetsNoHandoffUntilAPing(t *testing.T) {
	s0 := &liveShard{name: "s0", answer: HandoffResult{Accepted: true, State: service.StateCompleted}}
	s0.set(true, false, false)
	r := detectorRouter(t, 3, s0)
	r.Start()
	defer r.Close()
	waitFor(t, "s0's breaker to trip", func() bool { return !closed(t, r, "s0") })
	if _, err := r.Submit(testJob("parked", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}

	answer := s0.hold()
	defer answer()
	waitFor(t, "s0's breaker to go half-open", func() bool {
		return r.brk.Get("s0").State(r.now()) == breaker.HalfOpen
	})
	for i := 0; i < 3; i++ {
		r.dispatch("parked", 0)
	}
	if n := s0.count("handoff parked"); n != 0 {
		t.Fatalf("s0 received %d handoffs while half-open, want 0", n)
	}

	s0.set(false, false, false)
	answer()
	waitQuiesced(t, r, 10*time.Second)
	if view, _ := r.Job("parked"); view.State != service.StateCompleted || view.Shard != "s0" {
		t.Fatalf("parked = %+v, want completed on s0", view)
	}
	ping, _ := s0.first("ping")
	if handoff, n := s0.first("handoff parked"); n != 1 || handoff < ping {
		t.Fatalf("handoff %d of %d in s0's log, first answered ping %d: want one handoff, after the ping", handoff, n, ping)
	}
}

// TestDeathSweepStartsNoGoroutinePerJob: a shard declared dead with 200 jobs
// handed to it, whose revokes fail, costs the router no goroutine per job.
// Each revocation is a send the dispatchers owe the job; while the shard's
// breaker is open they hold it back on a timer, which runs no goroutine
// until it fires.
func TestDeathSweepStartsNoGoroutinePerJob(t *testing.T) {
	const jobs = 200
	accept := func() (*HandoffResult, error) {
		return &HandoffResult{Accepted: true, State: service.StateQueued}, nil
	}
	fleet := [2]*scriptShard{{name: "s0", handoff: accept}, {name: "s1", handoff: accept}}
	before := runtime.NumGoroutine()
	hour := time.Hour.Milliseconds()
	r, err := New(Config{
		Shards: []ShardClient{fleet[0], fleet[1]}, Seed: 1,
		HeartbeatInterval: time.Hour, RetryBase: time.Hour, RetryCap: time.Hour,
		Breaker: breaker.Config{Threshold: 1, OpenBase: hour, OpenMax: hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids := homed(r, "s0", jobs)
	for _, id := range ids {
		if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
		r.dispatch(id, 0)
	}
	r.Start()
	r.shardFailed("s0")
	waitFor(t, "the sweep's revocations to leave the queue", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, id := range ids {
			if r.records[id].State != StateRevoking {
				return false
			}
		}
		return len(r.pending) == 0
	})
	time.Sleep(20 * time.Millisecond)
	// Four dispatchers, two heartbeat loops, and slack for goroutines
	// still winding down at the instant of the count.
	const own, slack = 6, 4
	if got := runtime.NumGoroutine(); got > before+own+slack {
		t.Fatalf("%d goroutines after a death sweep of %d jobs, %d before the router: a goroutine per revocation",
			got, jobs, before)
	}
}

// TestRetryBackoffHoldsNoDispatcher: a handoff the shard answers
// "overloaded" waits out its backoff as a timed requeue, not in the
// dispatcher that sent it. With one dispatcher and an hour of backoff, a
// second job still completes on the other shard at once.
func TestRetryBackoffHoldsNoDispatcher(t *testing.T) {
	s0 := &liveShard{name: "s0", answer: HandoffResult{Code: service.CodeOverloaded}}
	s1 := &liveShard{name: "s1", answer: HandoffResult{Accepted: true, State: service.StateCompleted}}
	r, err := New(Config{Shards: []ShardClient{s0, s1}, Seed: 1, Workers: 1,
		RetryBase: time.Hour, RetryCap: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	busy, free := homed(r, "s0", 1)[0], homed(r, "s1", 1)[0]
	for _, id := range []string{busy, free} {
		if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	r.Start()
	deadline := time.Now().Add(time.Second)
	for view, _ := r.Job(free); view.State != service.StateCompleted; view, _ = r.Job(free) {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %+v a second after Start: the only dispatcher sleeps out %s's backoff", free, view, busy)
		}
		time.Sleep(time.Millisecond)
	}
	if view, _ := r.Job(busy); view.State != StateHanded || s0.count("handoff "+busy) != 1 {
		t.Errorf("%s = %+v after %d handoffs, want handed to s0 after one", busy, view, s0.count("handoff "+busy))
	}
}

// pacedShard is a shard whose breaker TestBreakerPacesSendsToASickShard
// watches. Its pings never return until release is closed, so only sends
// feed its breaker. Handoffs are accepted while accept is set; every other
// handoff and every revoke fails after a short while, and is logged with
// the number of sends in flight at its arrival and whether the router's
// breaker for the shard was open then.
type pacedShard struct {
	name    string
	r       *Router
	release chan struct{}

	mu       sync.Mutex
	accept   bool
	inflight int
	sends    []pacedSend
}

type pacedSend struct {
	what     string
	open     bool
	inflight int
}

func (s *pacedShard) Name() string { return s.name }

func (s *pacedShard) Ping(context.Context) error {
	<-s.release
	return errUnreachable
}

func (s *pacedShard) Handoff(_ context.Context, h *Handoff) (*HandoffResult, error) {
	s.mu.Lock()
	accept := s.accept
	s.mu.Unlock()
	if accept {
		return &HandoffResult{Accepted: true, State: service.StateQueued}, nil
	}
	return nil, s.fail("handoff " + h.Key)
}

func (s *pacedShard) Revoke(_ context.Context, req *RevokeRequest) (*RevokeResult, error) {
	return nil, s.fail("revoke " + req.Key)
}

func (s *pacedShard) fail(what string) error {
	open := s.r.brk.Get(s.name).State(s.r.now()) == breaker.Open
	s.mu.Lock()
	s.inflight++
	s.sends = append(s.sends, pacedSend{what, open, s.inflight})
	s.mu.Unlock()
	time.Sleep(2 * time.Millisecond)
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	return errUnreachable
}

// TestBreakerPacesSendsToASickShard: while a dead shard's breaker is open
// it receives no revoke and no handoff resend, and while it is half-open at
// most one send is in flight: the single probe. Ten jobs handed to the
// shard are swept into revocation, and an eleventh binding is resent at a
// join; every send fails, so the breaker never closes again.
func TestBreakerPacesSendsToASickShard(t *testing.T) {
	s0 := &pacedShard{name: "s0", release: make(chan struct{}), accept: true}
	s1 := &liveShard{name: "s1", answer: HandoffResult{Accepted: true, State: service.StateCompleted}}
	r := detectorRouter(t, 3, s0, s1)
	s0.r = r
	defer r.Close()
	defer close(s0.release) // before Close, which waits for the heartbeat loops
	ids := homed(r, "s0", 11)
	for _, id := range ids[:10] {
		if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
		r.dispatch(id, 0)
	}
	s0.mu.Lock()
	s0.accept = false
	s0.mu.Unlock()
	r.Start()
	r.shardFailed("s0")
	r.shardFailed("s0")

	r.mu.Lock()
	wire := testJob(ids[10], 60)
	rec := r.newRecordLocked(ids[10], "S1", 0, StateHanded)
	rec.Shard, rec.wire = "s0", &wire
	r.mu.Unlock()
	r.HandleJoin(&JoinRequest{Shard: "s0"})
	time.Sleep(300 * time.Millisecond)

	s0.mu.Lock()
	defer s0.mu.Unlock()
	for _, s := range s0.sends {
		if s.open {
			t.Errorf("%s reached s0 while its breaker was open", s.what)
		}
		if s.inflight > 1 {
			t.Errorf("%s reached s0 with %d sends in flight, want the one probe", s.what, s.inflight)
		}
	}
	if len(s0.sends) < 2 {
		t.Errorf("s0 received %d sends in 300ms of 10–20ms open windows, want a probe per half-open window", len(s0.sends))
	}
}

// TestHeldSendWaitsOutTheOpenWindow: a send its shard's open breaker holds
// back goes again when the open window ends, not a heartbeat later. With
// pings an hour apart, the failed handoff that trips s0's breaker sweeps
// the job into revocation; the revoke waits out the 20 ms window, probes
// the half-open shard, and its answer frees the job for s1.
func TestHeldSendWaitsOutTheOpenWindow(t *testing.T) {
	s0 := &liveShard{name: "s0", handoffDown: true}
	s1 := &liveShard{name: "s1", answer: HandoffResult{Accepted: true, State: service.StateCompleted}}
	r, err := New(Config{Shards: []ShardClient{s0, s1}, Seed: 1, HeartbeatInterval: time.Hour,
		RetryBudget: 3, RetryBase: time.Millisecond, RetryCap: time.Millisecond,
		Breaker: breaker.Config{Threshold: 1, OpenBase: 20, OpenMax: 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	id := homed(r, "s0", 1)[0]
	if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	r.Start()
	waitQuiesced(t, r, 5*time.Second)
	if view, _ := r.Job(id); view.State != service.StateCompleted || view.Shard != "s1" {
		t.Fatalf("%s = %+v, want completed on s1", id, view)
	}
	if revokes := s0.count("revoke " + id); revokes != 1 {
		t.Errorf("s0 revoked %s %d times, want once", id, revokes)
	}
}

// TestRevokeProbeSettlesAShardWhosePingsFail: a shard whose pings fail but
// which answers revokes is declared dead, and its in-doubt job is still
// settled: the half-open probe is its revoke, whose answer frees the job
// for the survivor.
func TestRevokeProbeSettlesAShardWhosePingsFail(t *testing.T) {
	s0 := &liveShard{name: "s0", answer: HandoffResult{Accepted: true, State: service.StateQueued}}
	s1 := &liveShard{name: "s1", answer: HandoffResult{Accepted: true, State: service.StateCompleted}}
	r := detectorRouter(t, 3, s0, s1)
	defer r.Close()
	id := homed(r, "s0", 1)[0]
	if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	r.dispatch(id, 0)
	s0.mu.Lock()
	s0.pingDown = true
	s0.mu.Unlock()
	r.Start()
	waitQuiesced(t, r, 10*time.Second)
	if view, _ := r.Job(id); view.State != service.StateCompleted || view.Shard != "s1" {
		t.Fatalf("%s = %+v, want completed on s1", id, view)
	}
	if revokes, handoffs := s0.count("revoke "+id), s1.count("handoff "+id); revokes != 1 || handoffs != 1 {
		t.Errorf("s0 revoked %s %d times and s1 received it %d times, want once each", id, revokes, handoffs)
	}
}
