package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// TestRejoinJournalIsTheSameBytesEveryRun: a rejoining shard applies the
// router's decisions in ID order, so the revocations it journals come out in
// one order. Eight held jobs, every other one revoked, are restored and
// joined afresh on each run, and every run must leave the journal the first
// run left, byte for byte.
func TestRejoinJournalIsTheSameBytesEveryRun(t *testing.T) {
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var jr JoinRequest
		if err := decodeJSONBody(req.Body, maxFrameBytes, &jr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := JoinResponse{Decisions: map[string]string{}}
		for i, h := range jr.Held {
			resp.Decisions[h.ID] = JoinResume
			if i%2 == 0 {
				resp.Decisions[h.ID] = JoinRevoke + "@1"
			}
		}
		writeJSON(w, http.StatusOK, resp)
	}))
	defer router.Close()

	var first []byte
	for run := 0; run < 6; run++ {
		dir := t.TempDir()
		jnl, _ := openTestJournal(t, dir)
		for i := 0; i < 8; i++ {
			wire := testJob(fmt.Sprintf("held-%d", i), 60)
			if _, err := jnl.Append(journal.Record{Job: wire.Name, State: service.StateQueued, Strategy: "S1", Wire: &wire}); err != nil {
				t.Fatal(err)
			}
		}
		jnl.Close()
		jnl, recovery := openTestJournal(t, dir)
		svc, err := service.New(service.Config{Env: testEnv(), Journal: jnl, HoldRecovered: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Restore(recovery); err != nil {
			t.Fatal(err)
		}
		m := NewMember(MemberConfig{Shard: "s0", Router: router.URL})
		m.Bind(svc)
		if err := m.joinOnce(); err != nil {
			t.Fatal(err)
		}
		held, samples := svc.Held(), scrape(t, svc.Handler())
		if depth, revoked := samples["grid_service_queue_depth"], samples["grid_service_revoked_total"]; len(held) != 0 || depth != 4 || revoked != 4 {
			t.Fatalf("run %d: after the join %d held, %v queued, %v revoked; want 0, 4, 4", run, len(held), depth, revoked)
		}
		jnl.Close()

		var got []byte
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got = append(append(got, f.Name()...), b...)
		}
		if run == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("run %d journaled\n%s\nrun 0 journaled\n%s", run, got, first)
		}
	}
}

// TestMemberRetryWaitsLeakNothingAndKeepWakeups pins the member's retry
// wait. It used to park a helper goroutine on the member's cond for every
// wait, until Close: each stale helper then swallowed the Signal of one
// later terminal notice (sync.Cond wakes waiters in arrival order), which
// sat undelivered. A router that refuses the first joins makes the member
// wait several times; afterwards two terminal notices must both arrive,
// and the member must be back to its one notifier goroutine.
func TestMemberRetryWaitsLeakNothingAndKeepWakeups(t *testing.T) {
	const refusals = 8
	var joins atomic.Int32
	delivered := make(chan string, 2) // sized to the two notices sent below
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/federation/join":
			if joins.Add(1) <= refusals {
				http.Error(w, "not ready", http.StatusServiceUnavailable)
				return
			}
			writeJSON(w, http.StatusOK, JoinResponse{})
		case "/v1/federation/terminal":
			var n TerminalNotice
			if err := json.NewDecoder(req.Body).Decode(&n); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			delivered <- n.Job
			w.WriteHeader(http.StatusOK)
		default:
			http.NotFound(w, req)
		}
	}))
	defer router.Close()

	svc, err := service.New(service.Config{Env: testEnv()})
	if err != nil {
		t.Fatal(err)
	}
	member := NewMember(MemberConfig{
		Shard: "s0", Router: router.URL,
		// No idle connections: their reader/writer goroutines would blur
		// the count below.
		Client:    &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}},
		RetryBase: time.Millisecond, RetryCap: 4 * time.Millisecond,
	})
	member.Bind(svc)
	before := runtime.NumGoroutine()
	member.Start()
	defer member.Close()

	deadline := time.Now().Add(5 * time.Second)
	for joins.Load() <= refusals {
		if time.Now().After(deadline) {
			t.Fatalf("member gave up joining after %d attempts", joins.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range []string{"first", "second"} {
		member.Terminal(service.Record{ID: id, State: service.StateCompleted})
		select {
		case got := <-delivered:
			if got != id {
				t.Fatalf("delivered %q, want %q", got, id)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("terminal notice %q was never delivered: its wake-up was swallowed", id)
		}
	}

	// The join loop has exited; only the notifier remains. Allow a little
	// slack for connection goroutines still unwinding.
	const slack = 2
	for runtime.NumGoroutine() > before+1+slack {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d failed joins, %d before Start: retry waits leak",
				runtime.NumGoroutine(), refusals, before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLargeLedgerRejoins: a rejoining shard sends the router every terminal
// record it ever ledgered, and compaction keeps them all. 20 000 of them
// with 1 KiB reasons encode past the frame limit the router reads a body
// under, which it refused with 400 on every attempt, so the held job never
// resumed. The member pages the catch-up: every request stays under the
// limit, the router answers each, and the held job resumes.
func TestLargeLedgerRejoins(t *testing.T) {
	r, err := New(Config{Shards: []ShardClient{&scriptShard{name: "s0"}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var mu sync.Mutex
	var bodies []int
	handler := r.Handler()
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		bodies = append(bodies, len(body))
		mu.Unlock()
		req.Body = io.NopCloser(bytes.NewReader(body))
		handler.ServeHTTP(w, req)
	}))
	defer router.Close()

	reason := strings.Repeat("r", 1024)
	recovery := &journal.Recovery{}
	for i := 0; i < 20000; i++ {
		recovery.Jobs = append(recovery.Jobs, &journal.JobState{
			Job: fmt.Sprintf("done-%05d", i), State: service.StateCompleted, Reason: reason, Strategy: "S1"})
	}
	wire := testJob("held", 60)
	recovery.Jobs = append(recovery.Jobs, &journal.JobState{Job: "held", State: service.StateQueued, Strategy: "S1", Wire: &wire})
	svc, err := service.New(service.Config{Env: testEnv(), HoldRecovered: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Restore(recovery); err != nil {
		t.Fatal(err)
	}

	m := NewMember(MemberConfig{Shard: "s0", Router: router.URL})
	m.Bind(svc)
	if err := m.joinOnce(); err != nil {
		t.Fatal(err)
	}
	if held, depth := svc.Held(), scrape(t, svc.Handler())["grid_service_queue_depth"]; len(held) != 0 || depth != 1 {
		t.Fatalf("after the join %v held and %v queued; want the held job resumed", held, depth)
	}
	if view, ok := r.Job("held"); !ok || view.Shard != "s0" {
		t.Fatalf("router's record of the held job: %+v, %v; want it bound to s0", view, ok)
	}
	if len(bodies) < 2 {
		t.Fatalf("%d join requests; a 20 MiB ledger needs pages", len(bodies))
	}
	for i, n := range bodies {
		if n >= maxFrameBytes {
			t.Errorf("join request %d is %d bytes, at or past the %d-byte limit", i, n, maxFrameBytes)
		}
	}
}

// TestMemberSendsNoRevokedNotices: a revocation is the router's own order,
// and the router's lifecycle refuses a revoked notice, so a member sends
// none, neither live nor in its join's terminal catch-up. One revocation
// used to cost one notice POST that changed nothing;
// grid_fed_member_terminal_notices_total now reads none for it.
func TestMemberSendsNoRevokedNotices(t *testing.T) {
	delivered := make(chan string, 4)
	joins := make(chan JoinRequest, 4)
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/federation/join":
			var jr JoinRequest
			if err := decodeJSONBody(req.Body, maxFrameBytes, &jr); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			joins <- jr
			writeJSON(w, http.StatusOK, JoinResponse{})
		case "/v1/federation/terminal":
			var n TerminalNotice
			if err := json.NewDecoder(req.Body).Decode(&n); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			delivered <- n.Job
			w.WriteHeader(http.StatusOK)
		default:
			http.NotFound(w, req)
		}
	}))
	defer router.Close()

	reg := telemetry.NewRegistry()
	var member *Member
	svc, err := service.New(service.Config{Env: testEnv(), OnTerminal: func(r service.Record) { member.Terminal(r) }})
	if err != nil {
		t.Fatal(err)
	}
	member = NewMember(MemberConfig{Shard: "s0", Router: router.URL, Telemetry: reg,
		RetryBase: time.Millisecond, RetryCap: 4 * time.Millisecond})
	member.Bind(svc)
	member.Start()
	defer member.Close()
	<-joins
	notices := reg.Counter("grid_fed_member_terminal_notices_total", "", telemetry.L("shard", "s0"))

	if res := ApplyHandoff(svc, &Handoff{Key: "moved", Job: testJob("moved", 60), Strategy: "S1"}); !res.Accepted {
		t.Fatalf("handoff = %+v", res)
	}
	if res := ApplyRevoke(svc, &RevokeRequest{Key: "moved", Reason: "test"}); res.Outcome != RevokeOutcomeRevoked {
		t.Fatalf("revoke = %+v", res)
	}
	// An infeasible handoff ends a second job, rejected: the notifier
	// delivers in order, so its notice arrives after any for "moved".
	ApplyHandoff(svc, &Handoff{Key: "sentinel", Job: testJob("sentinel", 3), Strategy: "S1"})
	sent := 0
	for got := ""; got != "sentinel"; sent++ {
		select {
		case got = <-delivered:
		case <-time.After(5 * time.Second):
			t.Fatal("the sentinel's notice was never delivered")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for notices.Value() != uint64(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("notices counter = %d, %d delivered", notices.Value(), sent)
		}
		time.Sleep(time.Millisecond)
	}
	if n := notices.Value() - 1; n != 0 {
		t.Errorf("one revocation cost %d terminal notices, want 0", n)
	}

	if err := member.joinOnce(); err != nil {
		t.Fatal(err)
	}
	jr := <-joins
	if len(jr.Terminal) != 1 || jr.Terminal[0].ID != "sentinel" {
		t.Errorf("join catch-up = %+v, want the sentinel's rejection alone", jr.Terminal)
	}
}
