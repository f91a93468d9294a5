package federation

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/journal"
	"repro/internal/service"
)

// scriptShard is a ShardClient that answers handoffs from a script and is
// unreachable for everything else, so a revoke the test sends moves no
// ledger entry.
type scriptShard struct {
	name    string
	handoff func() (*HandoffResult, error)
}

var errUnreachable = errors.New("script shard: unreachable")

func (s *scriptShard) Name() string { return s.name }

func (s *scriptShard) Handoff(context.Context, *Handoff) (*HandoffResult, error) {
	if s.handoff == nil {
		return nil, errUnreachable
	}
	return s.handoff()
}

func (s *scriptShard) Revoke(context.Context, *RevokeRequest) (*RevokeResult, error) {
	return nil, errUnreachable
}

func (s *scriptShard) Ping(context.Context) error { return errUnreachable }

// Placeholders for shard names a row cannot know before the ring binds.
const (
	boundShard = "<bound>" // the shard the job was bound to in setup
	otherShard = "<other>" // the fleet's other shard
)

// ledgerRow is what a row expects of the job's ledger entry afterwards.
type ledgerRow struct {
	State, Shard, Reason string
	Epoch                int
}

// tableCtx is one row's world: a journaled two-shard router that runs no
// background loops of its own, and the job under test.
type tableCtx struct {
	r            *Router
	jnl          *journal.Journal
	fleet        [2]*scriptShard
	id           string
	shard, other string // resolved boundShard / otherShard
}

func (x *tableCtx) answer(res *HandoffResult, err error) {
	for _, s := range x.fleet {
		s.handoff = func() (*HandoffResult, error) { return res, err }
	}
}

// transitionRow is one entry point fired from one prepared state.
type transitionRow struct {
	name string
	// from is the state prepared before fire: "" (no entry), queued, handed,
	// revoking or completed.
	from string
	fire func(x *tableCtx)
	// appends is how many journal records fire must write: one per
	// transition it makes.
	appends uint64
	// pushes is how many times fire queues the job for dispatch.
	pushes int
	// moves names the counters fire must bump by exactly one — in Metrics,
	// where a field exists, and in grid_fed_*; every other counter must stay
	// put.
	moves []string
	// want is the ledger entry after fire, live and as a fresh router
	// restores it from the journal; State "" means no entry exists.
	want ledgerRow
	// liveReasonDrifted marks the rows where, before moveLocked, the live
	// entry's Reason differed from the one its own journal record carried.
	// TestRouterTransitionTable skips the live Reason there (so it holds on
	// both sides of the refactor); TestRouterLedgerReasonFollowsJournal
	// pins that they agree now.
	liveReasonDrifted bool
}

// pending counts the job's places in the router's dispatch queue.
func (x *tableCtx) pending() int {
	x.r.mu.Lock()
	defer x.r.mu.Unlock()
	n := 0
	for _, o := range x.r.pending {
		if o.id == x.id {
			n++
		}
	}
	return n
}

func notice(x *tableCtx, shard, state, reason string) {
	x.r.HandleTerminal(&TerminalNotice{Shard: shard, Job: x.id, State: state, Reason: reason})
}

func join(x *tableCtx, shard string) {
	x.r.HandleJoin(&JoinRequest{Shard: shard})
}

func dispatchWith(res *HandoffResult, err error) func(*tableCtx) {
	return func(x *tableCtx) {
		x.answer(res, err)
		x.r.dispatch(x.id, 0)
	}
}

func revokeAnswer(res *RevokeResult) func(*tableCtx) {
	return func(x *tableCtx) { x.r.resolveRevoke(x.id, x.shard, res) }
}

const inDoubt = "test: binding in doubt"

var transitionTable = []transitionRow{
	// Admission.
	{name: "accept", from: "",
		fire:    func(x *tableCtx) { x.r.Submit(testJob(x.id, 60), "S1", 0) },
		appends: 2, moves: []string{"submitted", "accepted"}, pushes: 1,
		want: ledgerRow{State: StateHanded, Shard: boundShard}},
	{name: "accept/invalid", from: "",
		fire:  func(x *tableCtx) { x.r.Submit(testJob(x.id, 60), "NOPE", 0) },
		moves: []string{"submitted"}},
	{name: "accept/duplicate", from: StateQueued,
		fire:  func(x *tableCtx) { x.r.Submit(testJob(x.id, 60), "S1", 0) },
		moves: []string{"submitted"},
		want:  ledgerRow{State: StateQueued}},

	// Dispatch: the bind, then what the shard's answer makes of it.
	{name: "bind/accepted", from: StateQueued,
		fire:    dispatchWith(&HandoffResult{Accepted: true, State: service.StateQueued}, nil),
		appends: 1, moves: []string{"handoffs"},
		want: ledgerRow{State: StateHanded, Shard: boundShard}},
	{name: "bind/accepted-already-finished", from: StateQueued,
		fire: dispatchWith(&HandoffResult{Accepted: true, Duplicate: true,
			State: service.StateCompleted, Reason: "done earlier"}, nil),
		appends: 2, moves: []string{"handoffs", "completed"},
		want: ledgerRow{State: service.StateCompleted, Shard: boundShard, Reason: "done earlier"}},
	{name: "bind/definitive-refusal", from: StateQueued,
		fire:    dispatchWith(&HandoffResult{Code: service.CodeInfeasible, Reason: "deadline too tight"}, nil),
		appends: 2, moves: []string{"handoffs", "rejected"},
		want: ledgerRow{State: service.StateRejected, Shard: boundShard, Reason: "deadline too tight"}},
	{name: "bind/tombstone-answer", from: StateQueued,
		fire: dispatchWith(&HandoffResult{Duplicate: true, State: service.StateRevoked,
			Code: service.CodeDuplicate}, nil),
		appends: 2, moves: []string{"handoffs", "reallocated"}, pushes: 1,
		want:              ledgerRow{State: StateQueued, Epoch: 1, Reason: "tombstone at " + boundShard},
		liveReasonDrifted: true},
	{name: "bind/retryable-answer-exhausts-budget", from: StateQueued,
		fire:    dispatchWith(&HandoffResult{Code: service.CodeOverloaded}, nil),
		appends: 2, moves: []string{"handoffs"}, pushes: 1,
		want: ledgerRow{State: StateRevoking, Shard: boundShard, Reason: "handoff retry budget exhausted"}},
	{name: "bind/transport-error-exhausts-budget", from: StateQueued,
		fire:    dispatchWith(nil, errUnreachable),
		appends: 2, moves: []string{"handoffs", "handoffFailures"}, pushes: 1,
		want: ledgerRow{State: StateRevoking, Shard: boundShard, Reason: "handoff retry budget exhausted"}},

	// A bound job.
	{name: "handed/death-sweep", from: StateHanded,
		fire:    func(x *tableCtx) { x.r.shardFailed(x.shard); x.r.shardFailed(x.shard) },
		appends: 1, moves: []string{"deaths"}, pushes: 1,
		want: ledgerRow{State: StateRevoking, Shard: boundShard, Reason: "shard " + boundShard + " declared dead"}},
	{name: "handed/transport-error-trips-breaker", from: StateHanded,
		fire: func(x *tableCtx) {
			x.r.shardFailed(x.shard)
			dispatchWith(nil, errUnreachable)(x)
		},
		appends: 1, moves: []string{"handoffs", "handoffFailures", "deaths"}, pushes: 1,
		want: ledgerRow{State: StateRevoking, Shard: boundShard, Reason: "shard " + boundShard + " declared dead"}},
	{name: "handed/terminal-notice", from: StateHanded,
		fire:    func(x *tableCtx) { notice(x, x.shard, service.StateCompleted, "ok") },
		appends: 1, moves: []string{"completed"},
		want: ledgerRow{State: service.StateCompleted, Shard: boundShard, Reason: "ok"}},
	{name: "handed/terminal-notice-wrong-shard", from: StateHanded,
		fire: func(x *tableCtx) { notice(x, x.other, service.StateCompleted, "stale") },
		want: ledgerRow{State: StateHanded, Shard: boundShard}},
	{name: "handed/revoked-notice", from: StateHanded,
		fire: func(x *tableCtx) { notice(x, x.shard, service.StateRevoked, "") },
		want: ledgerRow{State: StateHanded, Shard: boundShard}},
	{name: "handed/drained-notice", from: StateHanded,
		fire:    func(x *tableCtx) { notice(x, x.shard, service.StateDrained, "") },
		appends: 1, moves: []string{"revocations", "reallocated"}, pushes: 1,
		want:              ledgerRow{State: StateQueued, Epoch: 1, Reason: "drained at " + boundShard},
		liveReasonDrifted: true},
	{name: "handed/drained-notice-wrong-shard", from: StateHanded,
		fire: func(x *tableCtx) { notice(x, x.other, service.StateDrained, "") },
		want: ledgerRow{State: StateHanded, Shard: boundShard}},
	{name: "handed/join-resume", from: StateHanded,
		fire:   func(x *tableCtx) { join(x, x.shard) },
		pushes: 1,
		want:   ledgerRow{State: StateHanded, Shard: boundShard}},
	{name: "handed/join-from-other-shard", from: StateHanded,
		fire: func(x *tableCtx) { join(x, x.other) },
		want: ledgerRow{State: StateHanded, Shard: boundShard}},

	// A job in doubt.
	{name: "revoking/revoked", from: StateRevoking,
		fire:    revokeAnswer(&RevokeResult{Outcome: RevokeOutcomeRevoked, State: service.StateRevoked}),
		appends: 1, moves: []string{"revocations", "reallocated"}, pushes: 1,
		want:              ledgerRow{State: StateQueued, Epoch: 1, Reason: "revoked from " + boundShard},
		liveReasonDrifted: true},
	{name: "revoking/inflight", from: StateRevoking,
		fire:              revokeAnswer(&RevokeResult{Outcome: RevokeOutcomeInFlight, State: service.StateScheduled}),
		appends:           1,
		want:              ledgerRow{State: StateHanded, Shard: boundShard},
		liveReasonDrifted: true},
	{name: "revoking/terminal", from: StateRevoking,
		fire: revokeAnswer(&RevokeResult{Outcome: RevokeOutcomeTerminal,
			State: service.StateRejected, Reason: "no admissible level"}),
		appends: 1, moves: []string{"rejected"},
		want: ledgerRow{State: service.StateRejected, Shard: boundShard, Reason: "no admissible level"}},
	{name: "revoking/terminal-notice", from: StateRevoking,
		fire:    func(x *tableCtx) { notice(x, x.shard, service.StateCompleted, "ok") },
		appends: 1, moves: []string{"completed"},
		want: ledgerRow{State: service.StateCompleted, Shard: boundShard, Reason: "ok"}},
	{name: "revoking/drained-notice", from: StateRevoking,
		fire:    func(x *tableCtx) { notice(x, x.shard, service.StateDrained, "") },
		appends: 1, moves: []string{"revocations", "reallocated"}, pushes: 1,
		want:              ledgerRow{State: StateQueued, Epoch: 1, Reason: "drained at " + boundShard},
		liveReasonDrifted: true},
	{name: "revoking/revoke-again", from: StateRevoking,
		fire: func(x *tableCtx) { x.r.beginRevoke(x.id, "a second opinion") },
		want: ledgerRow{State: StateRevoking, Shard: boundShard, Reason: inDoubt}},

	// Joins, and a drain of a job no shard was bound to.
	{name: "join/resends-handed", from: StateHanded,
		fire: func(x *tableCtx) {
			x.r.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost,
				"/v1/federation/join", strings.NewReader(`{"shard":"`+x.shard+`"}`)))
		},
		pushes: 1,
		want:   ledgerRow{State: StateHanded, Shard: boundShard}},
	{name: "join/binds-nothing", from: StateQueued,
		fire: func(x *tableCtx) { join(x, x.other) },
		want: ledgerRow{State: StateQueued}},
	{name: "queued/terminal-notice", from: StateQueued,
		fire:    func(x *tableCtx) { notice(x, x.other, service.StateCompleted, "ran before the crash") },
		appends: 1, moves: []string{"completed"},
		want: ledgerRow{State: service.StateCompleted, Shard: otherShard, Reason: "ran before the crash"}},
	{name: "queued/drain", from: StateQueued,
		fire: func(x *tableCtx) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			x.r.Drain(ctx)
		},
		appends: 1, moves: []string{"drained"},
		want: ledgerRow{State: service.StateDrained, Reason: "router shutdown before dispatch"}},

	// Terminal is final.
	{name: "terminal/late-notice", from: service.StateCompleted,
		fire: func(x *tableCtx) { notice(x, x.shard, service.StateRejected, "late duplicate") },
		want: ledgerRow{State: service.StateCompleted, Shard: boundShard, Reason: "ok"}},
	{name: "terminal/join", from: service.StateCompleted,
		fire: func(x *tableCtx) { join(x, x.shard) },
		want: ledgerRow{State: service.StateCompleted, Shard: boundShard, Reason: "ok"}},
}

// newTableCtx builds the row's router and walks the job to row.from through
// the real entry points. Submit binds a job to its home shard, whose breaker
// starts closed, so a queued entry is built as a restarted router restores
// one: from its journaled accept alone.
func newTableCtx(t *testing.T, dir, from string) *tableCtx {
	t.Helper()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever, IsTerminal: service.Terminal})
	if err != nil {
		t.Fatal(err)
	}
	x := &tableCtx{jnl: jnl, id: "job", fleet: [2]*scriptShard{{name: "s0"}, {name: "s1"}}}
	x.r = newTableRouter(t, x.fleet, jnl)
	x.shard, x.other = x.r.ring.Walk(x.id)[0], "s0"
	if x.shard == "s0" {
		x.other = "s1"
	}
	switch from {
	case "":
		return x
	case StateQueued:
		wire := testJob(x.id, 60)
		if _, err := jnl.Append(journal.Record{Job: x.id, State: StateQueued, Strategy: "S1", Wire: &wire}); err != nil {
			t.Fatal(err)
		}
		recovered, err := journal.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.r.Restore(recovered); err != nil {
			t.Fatal(err)
		}
		if got, _ := x.r.Job(x.id); got.State != StateQueued || got.Shard != "" {
			t.Fatalf("setup reached %+v, want queued and unbound", got)
		}
		return x
	}
	if _, err := x.r.Submit(testJob(x.id, 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	dispatchWith(&HandoffResult{Accepted: true, State: service.StateQueued}, nil)(x)
	switch from {
	case StateRevoking:
		x.r.beginRevoke(x.id, inDoubt)
	case service.StateCompleted:
		notice(x, x.shard, service.StateCompleted, "ok")
	}
	if got, _ := x.r.Job(x.id); got.State != from || got.Shard != x.shard {
		t.Fatalf("setup reached %+v, want %s on %s", got, from, x.shard)
	}
	return x
}

// newTableRouter is a router that is never Started, so only the row sends:
// one handoff attempt per binding, two failures of a shard's pings or sends
// to its death, and retry waits long enough that no requeued send comes
// back before Close.
func newTableRouter(t *testing.T, fleet [2]*scriptShard, jnl *journal.Journal) *Router {
	t.Helper()
	r, err := New(Config{
		Shards: []ShardClient{fleet[0], fleet[1]}, Seed: 1, Journal: jnl,
		RetryBudget: 1, Breaker: breaker.Config{Threshold: 2},
		RetryBase: time.Hour, RetryCap: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// routerCounters maps every counter the router keeps, under one vocabulary,
// to its Metrics field (nil where it has none) and its grid_fed_* series.
var routerCounters = map[string]struct {
	field  func(Metrics) uint64
	series string
}{
	"submitted":       {nil, "grid_fed_submitted_total"},
	"accepted":        {func(m Metrics) uint64 { return m.Accepted }, "grid_fed_accepted_total"},
	"completed":       {func(m Metrics) uint64 { return m.Completed }, "grid_fed_completed_total"},
	"rejected":        {func(m Metrics) uint64 { return m.Rejected }, "grid_fed_rejected_total"},
	"drained":         {func(m Metrics) uint64 { return m.Drained }, "grid_fed_drained_total"},
	"handoffs":        {nil, "grid_fed_handoffs_total"},
	"handoffFailures": {nil, "grid_fed_handoff_failures_total"},
	"retries":         {nil, "grid_fed_handoff_retries_total"},
	"reallocated":     {func(m Metrics) uint64 { return m.Reallocated }, "grid_fed_reallocations_total"},
	"revocations":     {func(m Metrics) uint64 { return m.Revocations }, "grid_fed_revocations_total"},
	"deaths":          {nil, "grid_fed_shard_deaths_total"},
}

// counters reads every counter the router keeps: its Metrics field and its
// sample on GET /metrics.
func counters(t *testing.T, r *Router) (met, series map[string]uint64) {
	t.Helper()
	m, samples := r.Metrics(), scrape(t, r.Handler())
	met, series = map[string]uint64{}, map[string]uint64{}
	for name, c := range routerCounters {
		if c.field != nil {
			met[name] = c.field(m)
		}
		series[name] = uint64(samples[c.series])
	}
	return met, series
}

// runTransitionRow fires one row and checks everything about it except the
// live Reason, which it returns next to the journaled one.
func runTransitionRow(t *testing.T, row transitionRow) (liveReason, journaledReason string) {
	t.Helper()
	dir := t.TempDir()
	x := newTableCtx(t, dir, row.from)
	defer x.r.Close()
	resolve := strings.NewReplacer(boundShard, x.shard, otherShard, x.other).Replace
	want := row.want
	want.Shard, want.Reason = resolve(want.Shard), resolve(want.Reason)

	lsn := x.jnl.Stats().NextLSN // every append takes the next LSN
	met0, series0 := counters(t, x.r)
	pending := x.pending()
	row.fire(x)
	if got := x.jnl.Stats().NextLSN - lsn; got != row.appends {
		t.Errorf("journal appends = %d, want %d", got, row.appends)
	}
	if got := x.pending() - pending; got != row.pushes {
		t.Errorf("queued for dispatch %d times, want %d", got, row.pushes)
	}
	moved := map[string]uint64{}
	for _, name := range row.moves {
		moved[name] = 1
	}
	met1, series1 := counters(t, x.r)
	for name := range met1 {
		if got := met1[name] - met0[name]; got != moved[name] {
			t.Errorf("Metrics %s moved by %d, want %d", name, got, moved[name])
		}
	}
	for name := range series1 {
		if got := series1[name] - series0[name]; got != moved[name] {
			t.Errorf("grid_fed series %s moved by %d, want %d", name, got, moved[name])
		}
	}

	live, ok := x.r.Job(x.id)
	if ok != (want.State != "") {
		t.Fatalf("live entry present = %v, want state %q", ok, want.State)
	}
	// The live Reason is the caller's to judge (see liveReasonDrifted).
	if got := (ledgerRow{live.State, live.Shard, want.Reason, live.Epoch}); got != want {
		t.Errorf("live entry = %+v, want %+v", live, want)
	}

	// A fresh router restored from the journal must hold the same entry:
	// the uniform records fold to what the hand-picked ones did.
	x.r.Close()
	if err := x.jnl.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := newTableRouter(t, x.fleet, nil)
	defer r2.Close()
	if _, err := r2.Restore(recovered); err != nil {
		t.Fatal(err)
	}
	restored, ok := r2.Job(x.id)
	if ok != (want.State != "") {
		t.Fatalf("restored entry present = %v, want state %q", ok, want.State)
	}
	if got := (ledgerRow{restored.State, restored.Shard, restored.Reason, restored.Epoch}); got != want {
		t.Errorf("restored entry = %+v, want %+v", restored, want)
	}
	return live.Reason, restored.Reason
}

// TestRouterTransitionTable fires every router entry point from every state
// it can meet and pins, per row: how many journal records it writes, which
// counters move, the resulting ledger entry, and that a fresh router
// restored from the journal holds the same entry. The table is the
// behaviour moveLocked had to preserve: it passes unchanged on the
// hand-written transitions it replaced.
func TestRouterTransitionTable(t *testing.T) {
	for _, row := range transitionTable {
		t.Run(row.name, func(t *testing.T) {
			live, journaled := runTransitionRow(t, row)
			if !row.liveReasonDrifted && live != journaled {
				t.Errorf("live Reason %q, journal says %q", live, journaled)
			}
		})
	}
}

// TestRouterLedgerReasonFollowsJournal pins what moveLocked fixed: on the
// re-queue and inflight-rebind transitions the hand-written
// code journaled one Reason and kept another in memory, so a restarted
// router showed a different reason than the one that wrote the journal.
func TestRouterLedgerReasonFollowsJournal(t *testing.T) {
	for _, row := range transitionTable {
		if !row.liveReasonDrifted {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			if live, journaled := runTransitionRow(t, row); live != journaled {
				t.Errorf("live Reason %q, journal says %q", live, journaled)
			}
		})
	}
}
