package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestJoinAppendsNothingToTheShardJournal: a rejoining shard rules on
// nothing, so neither its join nor the resends it asks for write to its
// journal. Eight held jobs are restored; the router holds the even ones
// handed to the shard and has never heard of the odd ones. After the join
// the resends have released the even ones, the odd ones stay held, and the
// journal has no record it did not have before.
func TestJoinAppendsNothingToTheShardJournal(t *testing.T) {
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("held-%d", i)
	}
	var rt *Router
	s0, jnl := restoredShard(t, "s0", &rt, 0, ids...)
	r, err := New(Config{Shards: []ShardClient{s0.local}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	r.mu.Lock()
	for i := 0; i < len(ids); i += 2 {
		wire := testJob(ids[i], 60)
		rec := r.newRecordLocked(ids[i], "S1", 0, StateHanded)
		rec.Shard, rec.wire = "s0", &wire
	}
	r.mu.Unlock()
	r.Start()
	defer r.Close()
	router := httptest.NewServer(r.Handler())
	defer router.Close()

	lsn := jnl.Stats().NextLSN
	m := NewMember(MemberConfig{Shard: "s0", Router: router.URL})
	m.Bind(s0.svc)
	if err := m.join(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for queueDepth(t, s0.svc) != 4 || r.th.handoffs.Value() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("after the join %v jobs queued and %d handoffs resent, want 4 and 4", queueDepth(t, s0.svc), r.th.handoffs.Value())
		}
		time.Sleep(time.Millisecond)
	}
	if n := jnl.Stats().NextLSN - lsn; n != 0 {
		t.Fatalf("the join appended %d shard journal records, want none", n)
	}
	if n := s0.svc.Process(-1); n != 4 {
		t.Fatalf("the shard processed %d jobs, want the 4 released", n)
	}
	for i := 1; i < len(ids); i += 2 {
		if rec, _ := s0.svc.Job(ids[i]); rec.State != service.StateQueued {
			t.Errorf("%s is %s, want it still held", ids[i], rec.State)
		}
	}
}

// TestResentHandoffReleasesAHeldJobFromItsEpoch: a resent handoff releases
// a job the shard holds from recovery only when its epoch is at or above the
// held record's; a frame from an older binding leaves the job held. Every
// answer is the duplicate's, queued, and writes nothing to the journal.
func TestResentHandoffReleasesAHeldJobFromItsEpoch(t *testing.T) {
	const held = 1 // the held record's epoch
	for _, tc := range []struct {
		name     string
		epoch    int
		released bool
	}{
		{"below", held - 1, false},
		{"equal", held, true},
		{"above", held + 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rt *Router
			s0, jnl := restoredShard(t, "s0", &rt, held, "j")
			m := NewMember(MemberConfig{Shard: "s0"})
			m.Bind(s0.svc)

			lsn := jnl.Stats().NextLSN
			frame, err := EncodeHandoff(&Handoff{Key: "j", Job: testJob("j", 60), Strategy: "S1", Epoch: tc.epoch})
			if err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			m.Handler(s0.svc.Handler()).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/federation/handoff", bytes.NewReader(frame)))
			var res HandoffResult
			if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || w.Code != http.StatusOK {
				t.Fatalf("handoff answered %d %q: %v", w.Code, w.Body.String(), err)
			}
			if !res.Accepted || !res.Duplicate || res.State != service.StateQueued {
				t.Errorf("answer %+v, want the queued duplicate", res)
			}
			if n := jnl.Stats().NextLSN - lsn; n != 0 {
				t.Errorf("the handoff appended %d journal records, want none", n)
			}
			if n := s0.svc.Process(-1); (n == 1) != tc.released || n > 1 {
				t.Errorf("the shard processed %d jobs; want the job released: %v", n, tc.released)
			}
		})
	}
}

// TestMemberRetryWaitsLeakNothingAndKeepWakeups pins the member's retry
// wait. It used to park a helper goroutine on the member's cond for every
// wait, until Close: each stale helper then swallowed the Signal of one
// later terminal notice (sync.Cond wakes waiters in arrival order), which
// sat undelivered. A router that refuses the first joins makes the member
// wait several times; afterwards two terminal notices must both arrive,
// and the member must be back to its one outbound goroutine.
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
			w.WriteHeader(http.StatusOK)
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

	// Only the member's one outbound loop remains. Allow a little slack for
	// connection goroutines still unwinding.
	const slack = 2
	for runtime.NumGoroutine() > before+1+slack {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d failed joins, %d before Start: retry waits leak",
				runtime.NumGoroutine(), refusals, before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLargeLedgerRejoins: a rejoin names the shard alone, so its bytes do
// not grow with the terminal ledger, which compaction keeps whole. It used
// to carry every terminal record as a catch-up: 20 000 of them with 1 KiB
// reasons took about 20 MiB in pages. A shard with that ledger and one held
// job, and a shard with the held job alone, must each send one join
// request, the same bytes and under 1 KiB, and the held job, which the
// router holds bound to s0, is resent and resumes.
func TestLargeLedgerRejoins(t *testing.T) {
	var first []byte
	for _, terminal := range []int{0, 20000} {
		reason := strings.Repeat("r", 1024)
		recovery := &journal.Recovery{}
		for i := 0; i < terminal; i++ {
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

		r, err := New(Config{Shards: []ShardClient{NewLocalShard("s0", svc)}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		r.mu.Lock()
		rec := r.newRecordLocked("held", "S1", 0, StateHanded)
		rec.Shard, rec.wire = "s0", &wire
		r.mu.Unlock()
		r.Start()
		defer r.Close()
		var mu sync.Mutex
		var bodies [][]byte
		handler := r.Handler()
		router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			body, err := io.ReadAll(req.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			bodies = append(bodies, body)
			mu.Unlock()
			req.Body = io.NopCloser(bytes.NewReader(body))
			handler.ServeHTTP(w, req)
		}))
		defer router.Close()

		m := NewMember(MemberConfig{Shard: "s0", Router: router.URL})
		m.Bind(svc)
		if err := m.join(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for queueDepth(t, svc) != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("%d terminal: after the join %v queued; want the held job resumed", terminal, queueDepth(t, svc))
			}
			time.Sleep(time.Millisecond)
		}
		if view, ok := r.Job("held"); !ok || view.Shard != "s0" || view.State != StateHanded {
			t.Fatalf("%d terminal: router's record of the held job: %+v, %v; want it handed to s0", terminal, view, ok)
		}
		if len(bodies) != 1 {
			t.Fatalf("%d terminal: %d join requests, want one", terminal, len(bodies))
		}
		if n := len(bodies[0]); n >= 1024 {
			t.Fatalf("%d terminal: the join is %d bytes, want under 1 KiB", terminal, n)
		}
		if first == nil {
			first = bodies[0]
		} else if !bytes.Equal(bodies[0], first) {
			t.Errorf("with %d terminal records the join is %s; with none it is %s", terminal, bodies[0], first)
		}
	}
}

// TestMemberSendsNoRevokedNotices: a revocation is the router's own order,
// and the router's lifecycle refuses a revoked notice, so a member sends
// none; and its join carries the shard's name alone. One revocation
// used to cost one notice POST that changed nothing;
// grid_fed_member_terminal_notices_total now reads none for it.
func TestMemberSendsNoRevokedNotices(t *testing.T) {
	delivered := make(chan string, 4)
	joins := make(chan string, 4)
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/federation/join":
			body, err := io.ReadAll(req.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			joins <- string(body)
			w.WriteHeader(http.StatusOK)
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

	if res := ApplyHandoff(context.Background(), svc, &Handoff{Key: "moved", Job: testJob("moved", 60), Strategy: "S1"}); !res.Accepted {
		t.Fatalf("handoff = %+v", res)
	}
	if res := ApplyRevoke(svc, &RevokeRequest{Key: "moved", Reason: "test"}); res.Outcome != RevokeOutcomeRevoked {
		t.Fatalf("revoke = %+v", res)
	}
	// An infeasible handoff ends a second job, rejected: the member's
	// outbound loop delivers in order, so its notice arrives after any for
	// "moved".
	ApplyHandoff(context.Background(), svc, &Handoff{Key: "sentinel", Job: testJob("sentinel", 3), Strategy: "S1"})
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

	if err := member.join(); err != nil {
		t.Fatal(err)
	}
	if jr := <-joins; jr != `{"shard":"s0"}` {
		t.Errorf("join = %s, want the shard's name alone", jr)
	}
}

// TestHandoffIgnoresARoutersClock: a shard reads no deadline out of a
// handoff frame, so the router's clock cannot make it refuse work. The
// frame here carries the deadlineUnixMilli field that routers once stamped
// from their own wall clock, set as a router whose clock runs far behind the
// shard's would set it; the shard accepts and decides the job like any
// other.
func TestHandoffIgnoresARoutersClock(t *testing.T) {
	svc, err := service.New(service.Config{Env: testEnv()})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMember(MemberConfig{Shard: "s0"})
	m.Bind(svc)
	svc.Start()
	defer svc.Drain(context.Background())

	payload, err := json.Marshal(map[string]any{
		"key": "skewed", "deadlineUnixMilli": 1, "job": testJob("skewed", 60), "strategy": "S1",
	})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	m.Handler(svc.Handler()).ServeHTTP(w, httptest.NewRequest(http.MethodPost,
		"/v1/federation/handoff", bytes.NewReader(frameRef(payload))))
	var res HandoffResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || w.Code != http.StatusOK {
		t.Fatalf("handoff answered %d %q: %v", w.Code, w.Body.String(), err)
	}
	if !res.Accepted || res.Code != "" {
		t.Fatalf("a frame stamped by a router with a slow clock = %+v, want accepted", res)
	}
	if rec, ok := svc.Job("skewed"); !ok || service.Tombstone(rec.State) {
		t.Fatalf("shard ledger holds %+v (present %v), want the accepted job", rec, ok)
	}
}

// TestRejoinResendsEveryBinding: a rejoin names the shard alone, and the
// router resends every job it holds bound to the shard, whose answer settles
// each. A job s0 completed while the router did not hear ends completed
// there; one s0 drained while down is requeued with s0 banned and completes
// on s1; one s0 never durably saw is accepted there fresh.
func TestRejoinResendsEveryBinding(t *testing.T) {
	var rt *Router
	shards := newFedShards(t, 2, &rt)
	recovery := &journal.Recovery{Jobs: []*journal.JobState{
		{Job: "done", State: service.StateCompleted, Reason: "ran before the crash", Strategy: "S1"},
		{Job: "drained", State: service.StateDrained, Reason: "drained at shutdown", Strategy: "S1"},
	}}
	if _, err := shards[0].svc.Restore(recovery); err != nil {
		t.Fatal(err)
	}
	// s0 stays in manual mode, so the job it accepts fresh stays queued.
	shards[1].svc.Start()
	defer shards[1].svc.Drain(context.Background())
	r, err := New(Config{Shards: []ShardClient{shards[0].local, shards[1].local}, Seed: 3,
		HeartbeatInterval: 50 * time.Millisecond, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt = r
	r.mu.Lock()
	for _, id := range []string{"done", "drained", "unseen"} {
		wire := testJob(id, 60)
		rec := r.newRecordLocked(id, "S1", 0, StateHanded)
		rec.Shard, rec.wire = "s0", &wire
	}
	r.mu.Unlock()
	r.Start()
	defer r.Close()

	r.HandleJoin(&JoinRequest{Shard: "s0"})
	want := map[string]service.Record{
		"done":    {State: service.StateCompleted, Shard: "s0", Reason: "ran before the crash"},
		"drained": {State: service.StateCompleted, Shard: "s1", Epoch: 1},
		"unseen":  {State: StateHanded, Shard: "s0"},
	}
	deadline := time.Now().Add(5 * time.Second)
	for id, w := range want {
		for {
			v, _ := r.Job(id)
			if v.State == w.State && v.Shard == w.Shard && v.Epoch == w.Epoch && (w.Reason == "" || v.Reason == w.Reason) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s is %+v, want %+v", id, v, w)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	r.mu.Lock()
	banned := r.records["drained"].banned["s0"]
	r.mu.Unlock()
	if !banned {
		t.Error("the drained job was requeued without banning s0")
	}
	if rec, ok := shards[0].svc.Job("unseen"); !ok || rec.State != service.StateQueued {
		t.Errorf("s0's record of the unseen job: %+v, %v; want it accepted and queued", rec, ok)
	}
}
