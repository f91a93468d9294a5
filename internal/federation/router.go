package federation

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/breaker"
	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// Router-side job states. Terminal states reuse the service vocabulary so
// one journal fold function (service.Terminal) covers both tiers.
const (
	// StateQueued — accepted by the router, not yet bound to a shard.
	StateQueued = service.StateQueued
	// StateHanded — bound to Shard; the handed record is journaled BEFORE
	// the first send, so a restarted router knows which shard may own an
	// in-doubt handoff.
	StateHanded = "handed"
	// StateRevoking — in doubt: the router wants the job back but has not
	// yet received a confirmed revocation. A job leaves this state only
	// through a shard's durable answer (revoked / inflight / terminal).
	StateRevoking = "revoking"
)

// routerTerminal reports router-level terminal states.
func routerTerminal(state string) bool { return service.Terminal(state) }

// Config configures a Router.
type Config struct {
	// Origin names this router in handoffs and revocations. Default
	// "gridfront".
	Origin string
	// Shards is the fleet. Required, at least one.
	Shards []ShardClient
	// Replicas is the consistent-hash virtual point count (DefaultReplicas
	// when ≤ 0).
	Replicas int
	// Journal, when non-nil, makes router placement state durable.
	Journal *journal.Journal
	// Telemetry exports grid_fed_* metrics. nil disables.
	Telemetry *telemetry.Registry
	// Breaker configures the per-shard circuit breakers. Breaker time is
	// wall milliseconds since router start, so OpenBase=512 means ~0.5s.
	Breaker breaker.Config
	// HeartbeatInterval is the shard ping period (default 250ms);
	// DeadAfter consecutive missed heartbeats declare a shard dead
	// (default 4) and sweep its bound jobs into revocation.
	HeartbeatInterval time.Duration
	DeadAfter         int
	// RetryBudget is the handoff attempts per binding before the router
	// gives the job up as in doubt and starts revocation (default 3).
	RetryBudget int
	// RetryBase/RetryCap bound the jittered exponential backoff between
	// handoff attempts (defaults 100ms / 2s) and between revocation
	// attempts.
	RetryBase time.Duration
	RetryCap  time.Duration
	// HandoffTimeout bounds one handoff or revoke RPC (default 2s); it is
	// also the deadline propagated inside the handoff frame.
	HandoffTimeout time.Duration
	// JitterFrac spreads the backoff (default 0.2); Seed drives all router
	// randomness.
	JitterFrac float64
	Seed       uint64
	// Workers is the dispatcher pool size (default 4).
	Workers int
	// Logf receives operational log lines. nil discards.
	Logf func(format string, args ...any)
}

func (c Config) origin() string {
	if c.Origin == "" {
		return "gridfront"
	}
	return c.Origin
}

func (c Config) heartbeat() time.Duration {
	if c.HeartbeatInterval <= 0 {
		return 250 * time.Millisecond
	}
	return c.HeartbeatInterval
}

func (c Config) deadAfter() int {
	if c.DeadAfter <= 0 {
		return 4
	}
	return c.DeadAfter
}

func (c Config) retryBudget() int {
	if c.RetryBudget <= 0 {
		return 3
	}
	return c.RetryBudget
}

func (c Config) handoffTimeout() time.Duration {
	if c.HandoffTimeout <= 0 {
		return 2 * time.Second
	}
	return c.HandoffTimeout
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 4
	}
	return c.Workers
}

// jobRecord is the router's ledger entry for one job.
type jobRecord struct {
	ID       string
	Strategy string
	Priority int
	State    string
	Shard    string
	Reason   string
	Seq      uint64

	wire         *jobio.Job
	attempts     int             // dispatch attempts across all bindings
	epoch        int             // reallocation round; +1 per confirmed revocation
	banned       map[string]bool // shards holding a tombstone for this key
	revokeActive bool            // a revocation loop owns this job
	submitted    time.Time       // for the end-to-end latency histogram
}

// JobView is the JSON face of a router ledger entry.
type JobView struct {
	ID       string `json:"id"`
	Strategy string `json:"strategy"`
	Priority int    `json:"priority"`
	State    string `json:"state"`
	Shard    string `json:"shard,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Epoch    int    `json:"epoch,omitempty"`
	Seq      uint64 `json:"seq"`
}

func (j *jobRecord) view() JobView {
	return JobView{ID: j.ID, Strategy: j.Strategy, Priority: j.Priority,
		State: j.State, Shard: j.Shard, Reason: j.Reason, Epoch: j.epoch, Seq: j.Seq}
}

// shardHealth is the router's liveness view of one shard.
type shardHealth struct {
	alive  bool
	missed int
}

// ShardStatus is the JSON face of a shard's health.
type ShardStatus struct {
	Alive   bool   `json:"alive"`
	Missed  int    `json:"missed"`
	Breaker string `json:"breaker"`
}

// Metrics is the router's counter snapshot.
type Metrics struct {
	Submitted    uint64                 `json:"submitted"`
	Accepted     uint64                 `json:"accepted"`
	Completed    uint64                 `json:"completed"`
	Rejected     uint64                 `json:"rejected"`
	Drained      uint64                 `json:"drained"`
	Handoffs     uint64                 `json:"handoffs"`
	Retries      uint64                 `json:"handoffRetries"`
	Reallocated  uint64                 `json:"reallocated"`
	Revocations  uint64                 `json:"revocations"`
	ShardDeaths  uint64                 `json:"shardDeaths"`
	Pending      int                    `json:"pending"`
	Handed       int                    `json:"handed"`
	Revoking     int                    `json:"revoking"`
	Draining     bool                   `json:"draining"`
	Shards       map[string]ShardStatus `json:"shards"`
	JournalError uint64                 `json:"journalErrors,omitempty"`
}

// Router is the front tier: it accepts jobs, partitions them across shards
// by consistent hashing, detects shard failure by heartbeat, and walks the
// recovery ladder — retry with backoff, circuit-break, then confirmed
// revocation and reallocation to a surviving shard. Its placement state is
// journaled write-ahead, so a SIGKILL'd router resumes every in-doubt
// handoff instead of losing or duplicating it.
type Router struct {
	cfg     Config
	ring    *Ring
	clients map[string]ShardClient
	brk     *breaker.Set
	start   time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	records map[string]*jobRecord
	pending []string
	health  map[string]*shardHealth
	seq     uint64
	met     Metrics
	closed  bool

	retry *backoff

	stopc chan struct{}
	wg    sync.WaitGroup

	th routerTelemetry
}

type routerTelemetry struct {
	submitted, accepted, completed, rejected *telemetry.Counter
	handoffs, handoffFailures, retries       *telemetry.Counter
	reallocated, revocations, deaths         *telemetry.Counter
	journalErrors                            *telemetry.Counter
	pending                                  *telemetry.Gauge
	alive                                    map[string]*telemetry.Gauge
	handoffLatency                           *telemetry.Histogram
	jobLatency                               *telemetry.Histogram
}

// New builds a router over cfg.Shards. Call Restore before Start when a
// journal recovery is available.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("federation: router needs at least one shard")
	}
	names := make([]string, 0, len(cfg.Shards))
	clients := make(map[string]ShardClient, len(cfg.Shards))
	for _, sc := range cfg.Shards {
		if _, dup := clients[sc.Name()]; dup {
			return nil, fmt.Errorf("federation: duplicate shard %q", sc.Name())
		}
		clients[sc.Name()] = sc
		names = append(names, sc.Name())
	}
	ring, err := NewRing(names, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	bcfg := cfg.Breaker
	if bcfg.Seed == 0 {
		bcfg.Seed = cfg.Seed
	}
	r := &Router{
		cfg:     cfg,
		ring:    ring,
		clients: clients,
		brk:     breaker.NewSet(bcfg),
		start:   time.Now(),
		records: make(map[string]*jobRecord),
		health:  make(map[string]*shardHealth, len(names)),
		stopc:   make(chan struct{}),
	}
	r.retry = newBackoff(cfg.RetryBase, cfg.RetryCap, 2*time.Second, cfg.JitterFrac,
		rng.New(cfg.Seed).Split(fnv1a("router")), r.stopc)
	r.cond = sync.NewCond(&r.mu)
	for _, n := range names {
		// Shards start alive: jobs dispatch immediately and the first
		// heartbeat round corrects optimism within one interval.
		r.health[n] = &shardHealth{alive: true}
	}
	if reg := cfg.Telemetry; reg != nil {
		r.th.submitted = reg.Counter("grid_fed_submitted_total", "jobs submitted to the router")
		r.th.accepted = reg.Counter("grid_fed_accepted_total", "jobs accepted by the router")
		r.th.completed = reg.Counter("grid_fed_completed_total", "federated jobs completed")
		r.th.rejected = reg.Counter("grid_fed_rejected_total", "federated jobs rejected")
		r.th.handoffs = reg.Counter("grid_fed_handoffs_total", "handoff attempts sent to shards")
		r.th.handoffFailures = reg.Counter("grid_fed_handoff_failures_total", "handoff attempts that failed in transport")
		r.th.retries = reg.Counter("grid_fed_handoff_retries_total", "handoff retries after the first attempt")
		r.th.reallocated = reg.Counter("grid_fed_reallocations_total", "jobs moved to another shard after confirmed revocation")
		r.th.revocations = reg.Counter("grid_fed_revocations_total", "confirmed revocations (incl. tombstones)")
		r.th.deaths = reg.Counter("grid_fed_shard_deaths_total", "shards declared dead by the heartbeat detector")
		r.th.journalErrors = reg.Counter("grid_fed_journal_errors_total", "router journal append failures")
		r.th.pending = reg.Gauge("grid_fed_jobs_pending", "router jobs awaiting dispatch")
		r.th.handoffLatency = reg.Histogram("grid_fed_handoff_latency_seconds",
			"latency of one successful handoff RPC",
			[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5})
		r.th.jobLatency = reg.Histogram("grid_fed_job_latency_seconds",
			"submit-to-terminal latency of federated jobs",
			[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60})
		r.th.alive = make(map[string]*telemetry.Gauge, len(names))
		for _, n := range names {
			g := reg.Gauge("grid_fed_shard_alive", "1 when the shard passes heartbeats", telemetry.L("shard", n))
			g.Set(1)
			r.th.alive[n] = g
		}
	}
	return r, nil
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// now maps wall time onto breaker ticks: milliseconds since router start.
func (r *Router) now() simtime.Time {
	return simtime.Time(time.Since(r.start) / time.Millisecond)
}

func (r *Router) journal(rec journal.Record) {
	if r.cfg.Journal == nil {
		return
	}
	if _, err := r.cfg.Journal.Append(rec); err != nil {
		r.met.JournalError++
		r.th.journalErrors.Inc()
		r.logf("federation: journal append %s/%s: %v", rec.Job, rec.State, err)
	}
}

// Start launches the dispatcher pool and the per-shard heartbeat loops.
func (r *Router) Start() {
	for i := 0; i < r.cfg.workers(); i++ {
		r.wg.Add(1)
		go r.dispatchLoop()
	}
	for name := range r.clients {
		r.wg.Add(1)
		go r.heartbeatLoop(name)
	}
}

// Submit accepts one job into the federation. Validation failures and
// duplicates are refused with the same SubmitError codes a plain service
// uses. An accepted job is journaled and queued; its fate is visible via
// Job/Jobs.
func (r *Router) Submit(wire jobio.Job, strategyName string, priority int) (JobView, error) {
	r.th.submitted.Inc()
	typ, err := strategy.ParseType(strategyName)
	if err == nil {
		_, err = wire.ToJob()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.met.Submitted++
	if err != nil {
		return JobView{}, &service.SubmitError{Code: service.CodeInvalid, Reason: err.Error()}
	}
	if r.met.Draining {
		return JobView{}, &service.SubmitError{Code: service.CodeDraining,
			Reason: "router is draining; not accepting work", RetryAfter: time.Second}
	}
	if _, dup := r.records[wire.Name]; dup {
		return JobView{}, &service.SubmitError{Code: service.CodeDuplicate,
			Reason: fmt.Sprintf("job %q was already submitted", wire.Name)}
	}
	// Write-ahead: the accept is durable before the job exists only in
	// memory, so an acknowledged submission survives a router SIGKILL.
	rec := r.createLocked(wire.Name, typ.String(), priority, &wire, StateQueued, "", "")
	r.met.Accepted++
	r.th.accepted.Inc()
	r.pushLocked(wire.Name)
	return rec.view(), nil
}

// createLocked makes a ledger entry and journals its creation record, the
// only record that carries the admission fields (strategy, priority, wire
// form). Every later change to the entry goes through moveLocked. Caller
// holds r.mu.
func (r *Router) createLocked(id, strategyName string, priority int, wire *jobio.Job, state, shard, reason string) *jobRecord {
	rec := r.newRecordLocked(id, strategyName, priority, state)
	rec.Shard, rec.Reason, rec.wire = shard, reason, wire
	r.journal(journal.Record{Job: id, State: state, Reason: reason,
		Strategy: strategyName, Priority: priority, Wire: wire, Shard: shard})
	return rec
}

// moveLocked is the only code that changes a ledger entry's State, Shard,
// Reason or epoch after creation. It journals the uniform record
// {Job, State, Reason, Shard, Epoch} and counts the transition, so the
// live ledger always equals the fold of its own journal. The transitions,
// by the event that causes them:
//
//	queued   → handed     bind (dispatch), join adopts a held job
//	queued   → terminal   drain before dispatch, notice from a shard that
//	                      ran the job before this router restarted
//	handed   → terminal   definitive handoff answer, terminal notice
//	handed   → queued+1   tombstone answer, drained notice
//	handed   → revoking   retry budget exhausted, death sweep, reconcile
//	revoking → queued+1   revoke confirmed, drained notice
//	revoking → handed     revoke answered "inflight"
//	revoking → terminal   revoke answered "terminal", terminal notice
//
// "+1" is the reallocation epoch: only a voided binding re-queues a job,
// and the next handoff must outrank every tombstone the job left behind.
// A terminal entry never moves again — the router half of exactly-once.
// Caller holds r.mu.
func (r *Router) moveLocked(rec *jobRecord, state, shard, reason string) {
	if routerTerminal(rec.State) {
		return
	}
	if state == StateQueued {
		rec.epoch++
	}
	rec.State, rec.Shard, rec.Reason = state, shard, reason
	r.journal(journal.Record{Job: rec.ID, State: state, Reason: reason, Shard: shard, Epoch: rec.epoch})
	switch state {
	case StateQueued:
		r.met.Reallocated++
		r.th.reallocated.Inc()
	case service.StateCompleted:
		r.met.Completed++
		r.th.completed.Inc()
	case service.StateRejected:
		r.met.Rejected++
		r.th.rejected.Inc()
	case service.StateDrained:
		r.met.Drained++
	}
	if routerTerminal(state) && !rec.submitted.IsZero() {
		r.th.jobLatency.Observe(time.Since(rec.submitted).Seconds())
	}
}

// newRecordLocked creates the ledger entry. Caller holds r.mu.
func (r *Router) newRecordLocked(id, strategyName string, priority int, state string) *jobRecord {
	r.seq++
	rec := &jobRecord{ID: id, Strategy: strategyName, Priority: priority,
		State: state, Seq: r.seq, submitted: time.Now()}
	r.records[id] = rec
	return rec
}

// pushLocked queues a job for dispatch. Caller holds r.mu.
func (r *Router) pushLocked(id string) {
	r.pending = append(r.pending, id)
	r.th.pending.Set(float64(len(r.pending)))
	r.cond.Signal()
}

// push is pushLocked for timers and RPC outcomes.
func (r *Router) push(id string) {
	r.mu.Lock()
	if !r.closed {
		r.pushLocked(id)
	}
	r.mu.Unlock()
}

// requeueLater re-queues id after d — the "no eligible shard right now"
// path, paced by the heartbeat interval.
func (r *Router) requeueLater(id string, d time.Duration) {
	time.AfterFunc(d, func() { r.push(id) })
}

// dispatchLoop is one worker: pop a pending job, dispatch it to the first
// eligible shard on its preference list, with a bounded retry budget.
func (r *Router) dispatchLoop() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.pending) == 0 && !r.closed {
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		id := r.pending[0]
		r.pending = r.pending[1:]
		r.th.pending.Set(float64(len(r.pending)))
		r.mu.Unlock()
		r.dispatch(id)
	}
}

// eligibleLocked returns the first shard on the preference list that is
// not banned for this job, currently alive, and admitted by its breaker.
func (r *Router) eligibleLocked(rec *jobRecord) (string, bool) {
	now := r.now()
	for _, s := range r.ring.Walk(rec.ID) {
		if rec.banned[s] {
			continue
		}
		if h := r.health[s]; h == nil || !h.alive {
			continue
		}
		if !r.brk.Allow(s, now) {
			continue
		}
		return s, true
	}
	return "", false
}

// dispatch binds one queued job to a shard and runs the handoff attempts.
func (r *Router) dispatch(id string) {
	r.mu.Lock()
	rec, ok := r.records[id]
	if !ok || rec.State != StateQueued {
		r.mu.Unlock()
		return
	}
	if rec.wire == nil {
		// Adopted or recovered without a wire form: nothing to send. Leave
		// it queued; a join from the owning shard resolves it.
		r.mu.Unlock()
		return
	}
	shard, ok := r.eligibleLocked(rec)
	if !ok && len(rec.banned) >= len(r.ring.Shards()) {
		// Every shard holds a tombstone for this key. Each ban was taken
		// only after a confirmed revocation (or a shard's own durable
		// tombstone answer), so the job is provably running nowhere — the
		// one situation where re-walking the ring is safe. The handoff
		// carries an epoch above every tombstone's, which lets the target
		// resurrect its tombstone instead of refusing the key forever.
		r.logf("federation: %s banned on every shard; clearing bans at epoch %d", id, rec.epoch)
		rec.banned = nil
		shard, ok = r.eligibleLocked(rec)
	}
	if !ok {
		r.mu.Unlock()
		r.requeueLater(id, r.cfg.heartbeat())
		return
	}
	// Journal the binding BEFORE the first byte leaves: if the router is
	// SIGKILL'd mid-handoff, its next incarnation knows shard may own the
	// job and reconciles instead of double-placing.
	realloc, from, epoch := rec.Shard != "", rec.Shard, rec.epoch
	r.moveLocked(rec, StateHanded, shard, "")
	wire := *rec.wire
	strategyName, priority := rec.Strategy, rec.Priority
	r.mu.Unlock()

	client := r.clients[shard]
	budget := r.cfg.retryBudget()
	for attempt := 1; attempt <= budget; attempt++ {
		if attempt > 1 {
			r.th.retries.Inc()
			r.mu.Lock()
			r.met.Retries++
			r.mu.Unlock()
			if !r.retry.wait(attempt - 1) {
				return
			}
		}
		h := &Handoff{
			Key: id, Origin: r.cfg.origin(), Attempt: attempt,
			Deadline: time.Now().Add(r.cfg.handoffTimeout()).UnixMilli(),
			Job:      wire, Strategy: strategyName, Priority: priority,
			Realloc: realloc, FromShard: from, Epoch: epoch,
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.handoffTimeout())
		began := time.Now()
		res, err := client.Handoff(ctx, h)
		cancel()
		r.th.handoffs.Inc()
		r.mu.Lock()
		r.met.Handoffs++
		r.mu.Unlock()
		if err != nil {
			r.th.handoffFailures.Inc()
			r.brk.Get(shard).Failure(r.now())
			r.logf("federation: handoff %s→%s attempt %d: %v", id, shard, attempt, err)
			continue
		}
		r.brk.Get(shard).Success(r.now())
		r.th.handoffLatency.Observe(time.Since(began).Seconds())
		if r.resolveHandoff(rec, shard, res) {
			return
		}
		// Retryable shard answer (overloaded / draining / expired):
		// consume budget and try again.
	}
	// Budget exhausted: the job is in doubt at shard (an attempt may have
	// been processed with its ack lost). Walk the last recovery-ladder
	// rung: confirmed revocation, then reallocation to a survivor.
	r.beginRevoke(id, "handoff retry budget exhausted")
}

// resolveHandoff applies a durable shard answer. Returns false when the
// answer is retryable.
func (r *Router) resolveHandoff(rec *jobRecord, shard string, res *HandoffResult) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.State != StateHanded || rec.Shard != shard {
		// A concurrent death sweep moved the job to revoking; the
		// revocation loop owns it now.
		return true
	}
	switch {
	case res.Accepted:
		if routerTerminal(res.State) {
			// Duplicate of an already-finished accept: mirror it.
			r.moveLocked(rec, res.State, shard, res.Reason)
		}
		return true
	case res.Duplicate && (res.State == service.StateRevoked || res.State == service.StateDrained):
		// Our own tombstone (or a drained shutdown remnant): this key was
		// voided at this shard earlier, so the binding is void. Ban the
		// shard and reallocate.
		r.banAndRequeueLocked(rec, shard, "tombstone at "+shard)
		return true
	case res.Code == service.CodeInvalid || res.Code == service.CodeInfeasible:
		r.moveLocked(rec, service.StateRejected, shard, res.Reason)
		return true
	default:
		return false // overloaded, draining, expired, internal: retry
	}
}

// banAndRequeueLocked voids the current binding (already proven safe: the
// shard holds a tombstone or confirmed the revoke) and requeues the job.
// Caller holds r.mu.
func (r *Router) banAndRequeueLocked(rec *jobRecord, shard, why string) {
	if rec.banned == nil {
		rec.banned = make(map[string]bool)
	}
	rec.banned[shard] = true
	r.moveLocked(rec, StateQueued, "", why)
	r.logf("federation: reallocating %s (%s)", rec.ID, why)
	r.pushLocked(rec.ID)
}

// beginRevoke moves a bound job into the revoking state and starts its
// revocation loop (at most one per job).
func (r *Router) beginRevoke(id, why string) {
	r.mu.Lock()
	rec, ok := r.records[id]
	if !ok || routerTerminal(rec.State) || rec.State == StateQueued {
		r.mu.Unlock()
		return
	}
	if rec.State != StateRevoking {
		r.moveLocked(rec, StateRevoking, rec.Shard, why)
	}
	if rec.revokeActive {
		r.mu.Unlock()
		return
	}
	rec.revokeActive = true
	r.mu.Unlock()
	r.wg.Add(1)
	go r.revokeLoop(id, why)
}

// revokeLoop retries the revocation RPC until the shard gives a durable
// answer. A SIGKILL'd shard answers after restart from its journal; a
// shard that never returns leaves the job in-doubt forever — by design,
// since reallocating without confirmation is the double-execution bug
// this protocol exists to prevent.
func (r *Router) revokeLoop(id, why string) {
	defer r.wg.Done()
	r.retry.retry(func(attempt int) bool {
		r.mu.Lock()
		rec, ok := r.records[id]
		if !ok || rec.State != StateRevoking {
			if ok {
				rec.revokeActive = false
			}
			r.mu.Unlock()
			return true
		}
		shard := rec.Shard
		epoch := rec.epoch
		r.mu.Unlock()

		client := r.clients[shard]
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.handoffTimeout())
		res, err := client.Revoke(ctx, &RevokeRequest{Key: id, Origin: r.cfg.origin(), Reason: why, Epoch: epoch})
		cancel()
		if err != nil {
			r.logf("federation: revoke %s@%s attempt %d: %v", id, shard, attempt, err)
			return false
		}
		return r.resolveRevoke(id, shard, res)
	})
}

// resolveRevoke applies a confirmed revocation answer. Returns false when
// the loop should keep trying (cannot happen today — every outcome is
// durable — but kept for future protocol versions).
func (r *Router) resolveRevoke(id, shard string, res *RevokeResult) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.records[id]
	if !ok || rec.State != StateRevoking {
		if ok {
			rec.revokeActive = false
		}
		return true
	}
	rec.revokeActive = false
	switch res.Outcome {
	case RevokeOutcomeRevoked:
		r.met.Revocations++
		r.th.revocations.Inc()
		r.banAndRequeueLocked(rec, shard, "revoked from "+shard)
	case RevokeOutcomeTerminal:
		r.moveLocked(rec, res.State, shard, res.Reason)
	case RevokeOutcomeInFlight:
		// The shard's engine owns it; rebind and wait for the terminal
		// notice. A later death sweeps it back into revocation.
		r.moveLocked(rec, StateHanded, shard, "")
	default:
		rec.revokeActive = true
		return false
	}
	return true
}

// heartbeatLoop pings one shard forever, driving the failure detector and
// the shard's breaker.
func (r *Router) heartbeatLoop(name string) {
	defer r.wg.Done()
	client := r.clients[name]
	t := time.NewTicker(r.cfg.heartbeat())
	defer t.Stop()
	for {
		select {
		case <-r.stopc:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.heartbeat())
		_, err := client.Ping(ctx)
		cancel()
		if err != nil {
			r.brk.Get(name).Failure(r.now())
			r.noteMiss(name)
			continue
		}
		r.brk.Get(name).Success(r.now())
		r.noteAlive(name)
	}
}

func (r *Router) noteMiss(name string) {
	r.mu.Lock()
	h := r.health[name]
	h.missed++
	dead := h.alive && h.missed >= r.cfg.deadAfter()
	if dead {
		h.alive = false
		r.met.ShardDeaths++
	}
	var sweep []string
	if dead {
		for id, rec := range r.records {
			if rec.State == StateHanded && rec.Shard == name {
				sweep = append(sweep, id)
			}
		}
		sort.Strings(sweep)
	}
	r.mu.Unlock()
	if !dead {
		return
	}
	if g := r.th.alive[name]; g != nil {
		g.Set(0)
	}
	r.th.deaths.Inc()
	r.logf("federation: shard %s declared dead after %d missed heartbeats; revoking %d bound jobs",
		name, r.cfg.deadAfter(), len(sweep))
	for _, id := range sweep {
		r.beginRevoke(id, "shard "+name+" declared dead")
	}
}

func (r *Router) noteAlive(name string) {
	r.mu.Lock()
	h := r.health[name]
	h.missed = 0
	revived := !h.alive
	h.alive = true
	r.mu.Unlock()
	if revived {
		if g := r.th.alive[name]; g != nil {
			g.Set(1)
		}
		r.logf("federation: shard %s is back", name)
		// Queued jobs whose only eligible shard just returned are sitting
		// on requeue timers; nothing to do — the timer re-pushes them.
	}
}

// HandleJoin is the router side of a shard's rejoin handshake: replay the
// shard's terminal catch-up ledger, then rule on every held job — resume
// what the shard still owns, revoke what moved or finished elsewhere.
func (r *Router) HandleJoin(req *JoinRequest) *JoinResponse {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range req.Terminal {
		r.applyTerminalLocked(&TerminalNotice{Shard: req.Shard, Job: t.ID, State: t.State, Reason: t.Reason})
	}
	resp := &JoinResponse{Decisions: make(map[string]string, len(req.Held))}
	for _, h := range req.Held {
		rec, ok := r.records[h.ID]
		switch {
		case !ok:
			// A job this router never saw (journal lost, or the shard
			// predates it): adopt the binding rather than orphan the job.
			r.createLocked(h.ID, "", 0, nil, StateHanded, req.Shard, "adopted from shard join")
			resp.Decisions[h.ID] = JoinResume
		case rec.State == StateHanded && rec.Shard == req.Shard:
			resp.Decisions[h.ID] = JoinResume
		case rec.State == StateQueued:
			// We intended to place it and the shard already holds it:
			// adopt the existing binding.
			r.moveLocked(rec, StateHanded, req.Shard, "")
			resp.Decisions[h.ID] = JoinResume
		default:
			// Bound elsewhere, being revoked, or already terminal: the
			// shard must not run it. Its own revoked ledger entry (not
			// this advisory answer) is what frees the key. The current
			// epoch rides along so the tombstone refuses stale replays
			// but yields to a genuinely newer re-handoff.
			resp.Decisions[h.ID] = fmt.Sprintf("%s@%d", JoinRevoke, rec.epoch)
		}
	}
	r.logf("federation: join from %s: %d held ruled, %d terminal replayed",
		req.Shard, len(req.Held), len(req.Terminal))
	return resp
}

// HandleTerminal applies one terminal notice from a shard. Idempotent.
func (r *Router) HandleTerminal(n *TerminalNotice) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.applyTerminalLocked(n)
}

// applyTerminalLocked is the idempotent core of terminal-notice handling.
// Caller holds r.mu; the journal append inside makes the notice durable
// before the HTTP 200 that stops the shard's redelivery.
func (r *Router) applyTerminalLocked(n *TerminalNotice) {
	rec, ok := r.records[n.Job]
	if !ok {
		return // not ours (e.g. a key another router placed)
	}
	if routerTerminal(rec.State) {
		return
	}
	switch n.State {
	case service.StateRevoked:
		// Shard-terminal only: the job itself lives on (we revoked it
		// there); the revocation loop owns the transition.
		return
	case service.StateDrained:
		// The shard shut down without running it: ownership released, so
		// reallocate — unless the binding already moved.
		if rec.Shard == n.Shard && (rec.State == StateHanded || rec.State == StateRevoking) {
			r.met.Revocations++
			r.th.revocations.Inc()
			r.banAndRequeueLocked(rec, n.Shard, "drained at "+n.Shard)
		}
		return
	default:
		if rec.Shard != "" && rec.Shard != n.Shard {
			// A shard we revoked away from still finished it first — that
			// can only be an inflight answer we rebound after, so the
			// notice is authoritative for that shard's execution.
			r.logf("federation: terminal notice for %s from %s but bound to %s", n.Job, n.Shard, rec.Shard)
			return
		}
		r.moveLocked(rec, n.State, n.Shard, n.Reason)
	}
}

// Restore rebuilds the router ledger from a journal recovery. Queued jobs
// go back to dispatch; handed jobs are reconciled against their shard
// (terminal → mirrored, still owned → kept, unknown → revoked and
// reallocated); revoking jobs resume their revocation loop. Call before
// Start.
func (r *Router) Restore(rec *journal.Recovery) (int, error) {
	if rec == nil {
		return 0, nil
	}
	r.mu.Lock()
	n := 0
	var reconcile, revoking []string
	for _, js := range rec.Jobs {
		if _, dup := r.records[js.Job]; dup {
			continue
		}
		state, shard := js.State, js.Shard
		if _, known := r.clients[shard]; !known && !routerTerminal(state) && state != StateRevoking {
			// Bound to a shard no longer in the fleet: requeue.
			state = StateQueued
		}
		if state == StateQueued {
			shard = ""
		}
		jr := r.newRecordLocked(js.Job, js.Strategy, js.Priority, state)
		jr.Shard = shard
		jr.Reason = js.Reason
		jr.wire = js.Wire
		jr.epoch = js.Epoch
		jr.submitted = time.Time{}
		n++
		switch {
		case routerTerminal(state):
			// Done; nothing to do.
		case state == StateQueued:
			r.pushLocked(js.Job)
		case state == StateRevoking:
			revoking = append(revoking, js.Job)
		default: // handed
			reconcile = append(reconcile, js.Job)
		}
	}
	r.mu.Unlock()
	for _, id := range revoking {
		r.beginRevoke(id, "recovered in-doubt revocation")
	}
	for _, id := range reconcile {
		r.wg.Add(1)
		go r.reconcile(id)
	}
	r.logf("federation: restored %d jobs (%d to reconcile, %d revoking)", n, len(reconcile), len(revoking))
	return n, nil
}

// reconcile resolves one recovered "handed" binding against the shard's
// durable ledger.
func (r *Router) reconcile(id string) {
	defer r.wg.Done()
	r.retry.retry(func(attempt int) bool {
		r.mu.Lock()
		rec, ok := r.records[id]
		if !ok || rec.State != StateHanded {
			r.mu.Unlock()
			return true // a death sweep or notice got there first
		}
		shard := rec.Shard
		r.mu.Unlock()

		client := r.clients[shard]
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.handoffTimeout())
		srec, found, err := client.Record(ctx, id)
		cancel()
		switch {
		case err != nil:
			r.logf("federation: reconcile %s@%s attempt %d: %v", id, shard, attempt, err)
			return false
		case !found:
			// The shard never durably saw the handoff: revoke (plants a
			// tombstone against the in-flight frame) and reallocate.
			r.beginRevoke(id, "recovered handoff unknown at "+shard)
		case srec.State == service.StateRevoked:
			r.beginRevoke(id, "recovered handoff revoked at "+shard)
		case service.Terminal(srec.State):
			r.HandleTerminal(&TerminalNotice{Shard: shard, Job: id, State: srec.State, Reason: srec.Reason})
		}
		// Otherwise still owned and in progress; the terminal notice will come.
		return true
	})
}

// Job returns one router ledger entry.
func (r *Router) Job(id string) (JobView, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.records[id]
	if !ok {
		return JobView{}, false
	}
	return rec.view(), true
}

// Jobs returns the ledger sorted by submission order.
func (r *Router) Jobs() []JobView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobView, 0, len(r.records))
	for _, rec := range r.records {
		out = append(out, rec.view())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Metrics snapshots the router counters and per-shard health.
func (r *Router) Metrics() Metrics {
	r.mu.Lock()
	m := r.met
	m.Pending = len(r.pending)
	m.Handed, m.Revoking = 0, 0
	for _, rec := range r.records {
		switch rec.State {
		case StateHanded:
			m.Handed++
		case StateRevoking:
			m.Revoking++
		}
	}
	health := make(map[string]*shardHealth, len(r.health))
	for n, h := range r.health {
		c := *h
		health[n] = &c
	}
	r.mu.Unlock()
	now := r.now()
	m.Shards = make(map[string]ShardStatus, len(health))
	for n, h := range health {
		m.Shards[n] = ShardStatus{Alive: h.alive, Missed: h.missed, Breaker: r.brk.Get(n).State(now).String()}
	}
	return m
}

// Quiesced reports whether every ledgered job is terminal.
func (r *Router) Quiesced() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range r.records {
		if !routerTerminal(rec.State) {
			return false
		}
	}
	return true
}

// Drain stops admission, waits for in-flight jobs to settle (until ctx),
// marks what never dispatched as drained, and stops the loops.
func (r *Router) Drain(ctx context.Context) error {
	r.mu.Lock()
	r.met.Draining = true
	r.mu.Unlock()

	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
wait:
	for !r.Quiesced() {
		select {
		case <-ctx.Done():
			break wait
		case <-tick.C:
		}
	}

	r.mu.Lock()
	for _, rec := range r.records {
		if rec.State == StateQueued {
			r.moveLocked(rec, service.StateDrained, rec.Shard, "router shutdown before dispatch")
		}
	}
	r.mu.Unlock()
	r.Close()
	return ctx.Err()
}

// Close stops the background loops without waiting for jobs.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.stopc)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}
