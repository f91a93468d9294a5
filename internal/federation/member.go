package federation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// MemberConfig configures a shard's federation glue.
type MemberConfig struct {
	// Shard is this shard's name in the fleet. Required.
	Shard string
	// Router is the router's base URL, which the join and every terminal
	// notice go to. Required: a shard reports every outcome to its router,
	// and only the resends its join asks for release the jobs it holds from
	// recovery (service.Config.HoldRecovered).
	Router string
	// Client is the HTTP client for join/terminal calls. nil uses a
	// 5-second-timeout default.
	Client *http.Client
	// RetryBase/RetryCap bound the jittered exponential backoff between
	// attempts at one join or terminal notice. Defaults 100ms / 5s.
	RetryBase time.Duration
	RetryCap  time.Duration
	// Seed drives the backoff's jitter.
	Seed uint64
	// Telemetry exports the member's joins and terminal notices
	// (grid_fed_member_*). nil disables.
	Telemetry *telemetry.Registry
	// Logf receives operational log lines. nil discards.
	Logf func(format string, args ...any)
}

// Member is the shard-side half of the federation protocol: it serves the
// handoff/revoke/ping endpoints in front of a service.Server, joins the
// router once at startup, which has the router resend every binding it
// holds here, and then tells the router each job's outcome; the join and
// the notices go out from one outbound loop. The member rules on nothing
// itself: a job held from recovery runs when its resent handoff arrives, or
// ends revoked by the router's revocation. An idle shard decides a handed
// job while the handoff waits, and the answer carries the outcome; any other
// outcome goes out as a terminal notice. Create it BEFORE the service so its
// Terminal method can be wired as service.Config.OnTerminal, then Bind the
// server and Start.
type Member struct {
	cfg    MemberConfig
	client *http.Client // cfg.Client, or the default built once
	svc    *service.Server
	retry  *backoff
	stopc  chan struct{} // closed by Close

	mu      sync.Mutex
	cond    *sync.Cond
	notices []TerminalNotice
	waiters map[string]*waiter // handoffs under way, by key: see Terminal
	closed  bool

	wg sync.WaitGroup

	notifies, joins *telemetry.Counter
}

// NewMember builds the member. Bind must be called before Handler or
// Start.
func NewMember(cfg MemberConfig) *Member {
	m := &Member{cfg: cfg, client: cfg.Client, stopc: make(chan struct{}), waiters: map[string]*waiter{}}
	if m.client == nil {
		m.client = &http.Client{Timeout: 5 * time.Second}
	}
	m.retry = newBackoff(cfg.RetryBase, cfg.RetryCap, 5*time.Second,
		rng.New(cfg.Seed).Split(fnv1a(cfg.Shard)), m.stopc)
	m.cond = sync.NewCond(&m.mu)
	if reg := cfg.Telemetry; reg != nil {
		l := telemetry.L("shard", cfg.Shard)
		m.notifies = reg.Counter("grid_fed_member_terminal_notices_total", "terminal notices delivered to the router", l)
		m.joins = reg.Counter("grid_fed_member_joins_total", "join handshakes completed", l)
	}
	return m
}

func (m *Member) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Bind attaches the service the member fronts.
func (m *Member) Bind(svc *service.Server) { m.svc = svc }

// waiter is a handoff under way: it catches its job's outcome, to answer
// with, in place of a notice. An empty state means none caught.
type waiter struct{ state, reason string }

// Terminal is the service.Config.OnTerminal hook. A completion or rejection
// of a job whose handoff is under way goes to that handoff's waiter, and its
// answer carries it; every other outcome is queued as a terminal notice for
// the router, except a revocation, which the router ordered and its
// lifecycle refuses as a notice. A drained job is always a notice: the
// router voids a binding only on the notice, and refuses the state in an
// answer. Terminal runs under the service's lock and returns immediately;
// delivery happens on the member's outbound loop, or in Close. A notice lost
// with the process is recovered by the next incarnation's join: the router
// resends the binding, and the duplicate answer carries the outcome.
func (m *Member) Terminal(rec service.Record) {
	if rec.State == service.StateRevoked {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if w := m.waiters[rec.ID]; w != nil && rec.State != service.StateDrained {
		w.state, w.reason = rec.State, rec.Reason
		return
	}
	m.notices = append(m.notices, TerminalNotice{
		Shard: m.cfg.Shard, Job: rec.ID, State: rec.State, Reason: rec.Reason,
	})
	m.cond.Signal()
}

// await registers a waiter for key. A newer handoff for the key replaces an
// older one's: the router stopped listening to the older when it sent the
// newer, so only the newer's answer may carry the outcome.
func (m *Member) await(key string) *waiter {
	w := &waiter{}
	m.mu.Lock()
	m.waiters[key] = w
	m.mu.Unlock()
	return w
}

// release unregisters w and returns what it caught. Every outcome after it
// goes out as a notice.
func (m *Member) release(key string, w *waiter) waiter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.waiters[key] == w {
		delete(m.waiters, key)
	}
	return *w
}

// Start launches the member's outbound loop. Call after Bind and after
// service.Restore: a resend the join asks for finds a held job only once it
// is restored.
func (m *Member) Start() {
	m.wg.Add(1)
	go m.sendLoop()
}

// Close stops the outbound loop and then gives each notice still queued
// one delivery attempt, in order; the first failure drops the rest. Close a
// member after draining its service, so the drained notices that release a
// decommissioned shard's queued jobs to the router leave before it goes. A
// dropped notice is not lost for good: the next incarnation's join has the
// router resend the binding, whose duplicate answer settles it.
func (m *Member) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.stopc)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()

	m.mu.Lock()
	rest := m.notices
	m.notices = nil
	m.mu.Unlock()
	for i, n := range rest {
		if err := m.deliver(n); err != nil {
			m.logf("federation: terminal notice %s at close: %v; dropping %d notices", n.Job, err, len(rest)-i)
			return
		}
		m.notifies.Inc()
	}
}

// sendLoop makes every call the member sends the router, one at a time:
// first the join, then the terminal notices in order. Each is retried with
// backoff until one round trip succeeds. The join names the shard alone and
// the router answers it with a bare 200, so a lost answer is safe: the next
// attempt asks for the same resends. Notice delivery is at-least-once; the
// router's terminal handler is idempotent.
func (m *Member) sendLoop() {
	defer m.wg.Done()
	if !m.send("join", m.join) {
		return
	}
	m.joins.Inc()
	for {
		m.mu.Lock()
		for len(m.notices) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		n := m.notices[0]
		m.mu.Unlock()

		if !m.send("terminal notice "+n.Job, func() error { return m.deliver(n) }) {
			return
		}
		m.notifies.Inc()
		m.mu.Lock()
		m.notices = m.notices[1:]
		m.mu.Unlock()
	}
}

// send retries call until one round trip succeeds. It reports false when
// the member closed first.
func (m *Member) send(what string, call func() error) bool {
	return m.retry.retry(func(attempt int) bool {
		err := call()
		if err != nil {
			m.logf("federation: %s attempt %d: %v", what, attempt, err)
		}
		return err == nil
	})
}

// join sends one join.
func (m *Member) join() error {
	return callJSON(context.Background(), m.client, http.MethodPost, m.cfg.Router+"/v1/federation/join", &JoinRequest{Shard: m.cfg.Shard}, nil)
}

func (m *Member) deliver(n TerminalNotice) error {
	return callJSON(context.Background(), m.client, http.MethodPost, m.cfg.Router+"/v1/federation/terminal", &n, nil)
}

// Handler wraps next (the service's HTTP API) with the federation
// endpoints:
//
//	POST /v1/federation/handoff — framed job handoff (idempotent by key)
//	POST /v1/federation/revoke  — confirmed revocation / tombstone
//	GET  /v1/federation/ping    — heartbeat: answers a bare 200
func (m *Member) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.HandleFunc("POST /v1/federation/handoff", m.handleHandoff)
	mux.HandleFunc("POST /v1/federation/revoke", m.handleRevoke)
	mux.HandleFunc("GET /v1/federation/ping", m.handlePing)
	return mux
}

func (m *Member) handleHandoff(w http.ResponseWriter, r *http.Request) {
	h, err := readHandoff(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrBadVersion) {
			status = http.StatusUpgradeRequired
		}
		writeJSON(w, status, HandoffResult{Code: "bad_frame", Reason: err.Error()})
		return
	}
	// The waiter goes in before admission, which can itself decide the job
	// (an infeasible deadline), and comes out before the answer is written:
	// an outcome the answer does not carry is a notice.
	wt := m.await(h.Key)
	res := ApplyHandoff(r.Context(), m.svc, h)
	if out := m.release(h.Key, wt); out.state != "" {
		res.State, res.Reason = out.state, out.reason
	}
	writeJSON(w, http.StatusOK, *res)
}

func (m *Member) handleRevoke(w http.ResponseWriter, r *http.Request) {
	var req RevokeRequest
	if err := decodeJSONBody(r.Body, maxFrameBytes, &req); err != nil || req.Key == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad revoke request"})
		return
	}
	writeJSON(w, http.StatusOK, *ApplyRevoke(m.svc, &req))
}

func (m *Member) handlePing(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
}

// ApplyHandoff maps one decoded handoff onto a service submission and
// answers it: the whole of what a shard does with a frame once it is
// decoded. Admission appends the accept unsynced; the answer waits for
// Settle, which syncs through the shard's newest record, so it names only
// durable state, and on an idle shard the outcome's fsync covers the
// accept: the job costs the shard one. A fresh accept answers with the
// state Settle shows. A failed sync refuses the handoff as internal,
// which the router retries: the shard cannot say what it holds on disk.
func ApplyHandoff(ctx context.Context, svc *service.Server, h *Handoff) *HandoffResult {
	res := admitHandoff(svc, h)
	rec, err := svc.Settle(ctx, h.Key)
	if err != nil {
		return &HandoffResult{Code: service.CodeInternal,
			Reason: fmt.Sprintf("journal sync failed; the handoff may not survive a crash: %v", err)}
	}
	if res.Accepted && !res.Duplicate {
		res.State, res.Reason = rec.State, rec.Reason
	}
	return res
}

// admitHandoff is ApplyHandoff's admission. The handoff's epoch rides into
// it, and it alone decides whether a tombstone (the key was revoked or
// drained here) yields to a new life. A duplicate is answered with the
// record as it stands: a tombstone is not accepted — the frame replays a
// binding the router already voided, so the job belongs elsewhere — while
// a live or finished accept is, idempotently. A queued duplicate the
// frame's epoch reaches is released if it is held from recovery: the
// router's current binding sends the job here, so it runs.
func admitHandoff(svc *service.Server, h *Handoff) *HandoffResult {
	rec, err := svc.SubmitEpoch(h.Job, h.Strategy, h.Priority, h.Epoch)
	if err == nil {
		return &HandoffResult{Accepted: true, State: rec.State}
	}
	var se *service.SubmitError
	if !errors.As(err, &se) {
		return &HandoffResult{Code: service.CodeInternal, Reason: err.Error()}
	}
	if se.Code == service.CodeDuplicate {
		if rec.State == service.StateQueued && rec.Epoch <= h.Epoch {
			svc.ResumeHeld(h.Key)
		}
		return &HandoffResult{Duplicate: true, Accepted: !service.Tombstone(rec.State),
			State: rec.State, Code: se.Code, Reason: rec.Reason}
	}
	// Overloaded, draining and internal are retryable; invalid and
	// infeasible are definitive. The router tells them apart by Code.
	return &HandoffResult{Code: se.Code, Reason: se.Reason}
}

// ApplyRevoke maps a revocation onto the service, returning the confirmed
// outcome. A tombstone, revoked or drained, is revoked: the shard will never
// run the job, so the router reallocates it. A revocation whose sync failed
// is answered with no outcome, which the router refuses and sends again:
// the shard cannot say what it holds on disk.
func ApplyRevoke(svc *service.Server, req *RevokeRequest) *RevokeResult {
	rec, err := svc.RevokeEpoch(req.Key, "revoked by the router: "+req.Reason, req.Epoch)
	switch {
	case errors.Is(err, service.ErrInFlight):
		return &RevokeResult{Outcome: RevokeOutcomeInFlight, State: rec.State}
	case err != nil:
		return &RevokeResult{Reason: fmt.Sprintf("journal sync failed; the revocation may not survive a crash: %v", err)}
	}
	if service.Tombstone(rec.State) {
		return &RevokeResult{Outcome: RevokeOutcomeRevoked, State: rec.State, Reason: rec.Reason}
	}
	return &RevokeResult{Outcome: RevokeOutcomeTerminal, State: rec.State, Reason: rec.Reason}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
