package federation

import (
	"cmp"
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
// compaction's IsTerminal (service.Terminal) covers both tiers.
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

// An event is what moves a router ledger entry; lifecycle says where each
// leads.
type event uint8

const (
	evBind      event = iota // Submit or dispatch binds the job to a shard
	evAnswer                 // the bound shard answers the handoff definitively
	evTombstone              // the bound shard holds a tombstone for the key
	evRevoke                 // the binding is in doubt
	evRevoked                // the shard confirms the revocation
	evInFlight               // the shard's engine owns the job
	evDrainedAt              // the bound shard drained the job at shutdown
	evTerminal               // a shard reports the job's outcome
	evDrain                  // the router shuts down before dispatching it
)

// outcome stands in a row for the state the event's message names, which
// must be a service-tier terminal state that is no tombstone: the job ran,
// or was refused, on the shard.
const outcome = "outcome"

// lifecycle is the router tier's job lifecycle: for each event, the state
// it moves an entry from to the state it leads to. moveLocked consults it
// for every change and refuses a pair it does not list, so a terminal
// entry, which no row leaves, never moves again: the router half of
// exactly-once. A move to queued voids a binding and raises the job's
// epoch, so the next handoff outranks every tombstone the job left behind.
// A queued entry takes an outcome from a shard that ran the job before this
// router restarted.
var lifecycle = [...]map[string]string{
	evBind:      {StateQueued: StateHanded},
	evAnswer:    {StateHanded: outcome},
	evTombstone: {StateHanded: StateQueued},
	evRevoke:    {StateHanded: StateRevoking},
	evRevoked:   {StateRevoking: StateQueued},
	evInFlight:  {StateRevoking: StateHanded},
	evDrainedAt: {StateHanded: StateQueued, StateRevoking: StateQueued},
	evTerminal:  {StateQueued: outcome, StateHanded: outcome, StateRevoking: outcome},
	evDrain:     {StateQueued: service.StateDrained},
}

// Config configures a Router.
type Config struct {
	// Shards is the fleet. Required, at least one.
	Shards []ShardClient
	// Journal, when non-nil, makes router placement state durable.
	Journal *journal.Journal
	// Telemetry keeps the grid_fed_* metrics, the only tally behind
	// Metrics, served on GET /metrics. nil makes New create a private one.
	// A registry serves one router: two would share one tally. It is
	// forwarded to the shard breakers unless Breaker carries its own.
	Telemetry *telemetry.Registry
	// Breaker configures the per-shard circuit breakers, the router's one
	// failure detector: Threshold consecutive failed pings, handoff or
	// revoke transports (default 5) trip a shard's breaker, which declares
	// the shard dead and sweeps its bound jobs into revocation. The breaker
	// paces every send: an open one gets none, a half-open one a single
	// resend or revoke as its probe, and only a closed one new bindings. A
	// good ping or an answered send closes it. Breaker time is wall
	// milliseconds since router start, so OpenBase=512 means ~0.5s.
	Breaker breaker.Config
	// HeartbeatInterval is the shard ping period (default 250ms).
	HeartbeatInterval time.Duration
	// RetryBudget is the handoff attempts per binding before the router
	// gives the job up as in doubt and starts revocation (default 3).
	RetryBudget int
	// RetryBase/RetryCap bound the jittered exponential backoff after a
	// handoff or revoke that settled nothing (defaults 100ms / 2s): the
	// entry waits it out as a timed requeue, holding no dispatcher.
	RetryBase time.Duration
	RetryCap  time.Duration
	// HandoffTimeout bounds one handoff or revoke RPC (default 2s).
	HandoffTimeout time.Duration
	// Seed drives all router randomness.
	Seed uint64
	// Workers is the dispatcher pool size (default 4): at most this many
	// handoffs and revokes are in flight at once.
	Workers int
	// Logf receives operational log lines. nil discards.
	Logf func(format string, args ...any)
}

func (c Config) heartbeat() time.Duration {
	if c.HeartbeatInterval <= 0 {
		return 250 * time.Millisecond
	}
	return c.HeartbeatInterval
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

// jobRecord is the router's ledger entry for one job: the Record clients
// read, whose Shard is the binding and whose Epoch is the reallocation
// round (+1 per confirmed revocation), and the routing state beside it.
type jobRecord struct {
	service.Record

	wire     *jobio.Job      // what a handoff sends; nil once terminal
	banned   map[string]bool // shards holding a tombstone for this key
	attempts int             // sends since the entry last moved
}

// Metrics is the in-process read of the router counters that gridfront's
// drain log, the examples and the benchmark report: each field is its
// grid_fed_* series. Every other number is read from GET /metrics.
type Metrics struct {
	Accepted, Completed, Rejected, Drained uint64
	Reallocated, Revocations               uint64
}

// Router is the front tier: it accepts jobs, partitions them across shards
// by consistent hashing, and walks the recovery ladder — retry with
// backoff, then confirmed revocation and reallocation to a surviving shard.
// Every handoff and revoke is one dispatch by its worker pool, and a retry
// is a timed requeue. One circuit breaker per shard, fed by heartbeats and
// by every send, is its failure detector and paces the sends to a sick
// shard: a trip declares the shard dead and revokes what it holds. Its
// placement state is journaled write-ahead, so a SIGKILL'd router resumes
// every in-doubt handoff instead of losing or duplicating it.
type Router struct {
	cfg     Config
	ring    *Ring
	clients map[string]ShardClient
	brk     *breaker.Set
	start   time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	led      *journal.Ledger[struct{}] // journals the moves made under mu
	records  map[string]*jobRecord
	live     int           // entries not yet terminal; Quiesced reads it
	quiet    chan struct{} // closed when live falls to 0 under a Drain
	pending  []owed
	seq      uint64
	draining bool
	closed   bool

	retry *backoff

	stopc chan struct{}
	wg    sync.WaitGroup

	th routerTelemetry
}

// routerTelemetry caches the router's registry handles. The counters
// Metrics reads move under r.mu, so it reads them whole.
type routerTelemetry struct {
	submitted, accepted, completed, rejected *telemetry.Counter
	drained                                  *telemetry.Counter
	handoffs, handoffFailures, retries       *telemetry.Counter
	reallocated, revocations, deaths         *telemetry.Counter
	pending                                  *telemetry.Gauge
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
	ring, err := NewRing(names)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	reg := cfg.Telemetry
	bcfg := cfg.Breaker
	if bcfg.Seed == 0 {
		bcfg.Seed = cfg.Seed
	}
	if bcfg.Telemetry == nil {
		bcfg.Telemetry = reg
	}
	r := &Router{
		cfg:     cfg,
		ring:    ring,
		clients: clients,
		brk:     breaker.NewSet(bcfg),
		start:   time.Now(),
		records: make(map[string]*jobRecord),
		stopc:   make(chan struct{}),
	}
	r.retry = newBackoff(cfg.RetryBase, cfg.RetryCap, 2*time.Second,
		rng.New(cfg.Seed).Split(fnv1a("router")), nil)
	r.cond = sync.NewCond(&r.mu)
	r.led = journal.NewLedger[struct{}](&r.mu, cfg.Journal, nil)
	for _, n := range names {
		// Breakers start closed, so jobs dispatch at once, and each shard's
		// grid_breaker_state series shows from the start.
		r.brk.Get(n)
	}
	r.th = routerTelemetry{
		submitted:       reg.Counter("grid_fed_submitted_total", "jobs submitted to the router"),
		accepted:        reg.Counter("grid_fed_accepted_total", "jobs accepted by the router"),
		completed:       reg.Counter("grid_fed_completed_total", "federated jobs completed"),
		rejected:        reg.Counter("grid_fed_rejected_total", "federated jobs rejected"),
		drained:         reg.Counter("grid_fed_drained_total", "router jobs drained before dispatch"),
		handoffs:        reg.Counter("grid_fed_handoffs_total", "handoff attempts sent to shards"),
		handoffFailures: reg.Counter("grid_fed_handoff_failures_total", "handoff attempts that failed in transport"),
		retries:         reg.Counter("grid_fed_handoff_retries_total", "handoff retries after the first attempt"),
		reallocated:     reg.Counter("grid_fed_reallocations_total", "jobs moved to another shard after confirmed revocation"),
		revocations:     reg.Counter("grid_fed_revocations_total", "confirmed revocations (incl. tombstones)"),
		deaths:          reg.Counter("grid_fed_shard_deaths_total", "shards declared dead by their breaker"),
		pending:         reg.Gauge("grid_fed_jobs_pending", "router jobs awaiting dispatch"),
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
// uses. An accepted job is journaled, bound to its shard when one is
// eligible, synced and queued for dispatch. It returns a copy of the
// entry's Record, as Server.Submit does; the job's fate is visible via
// Job/Jobs.
func (r *Router) Submit(wire jobio.Job, strategyName string, priority int) (_ *service.Record, err error) {
	typ, err := strategy.ParseType(strategyName)
	if err == nil {
		// The graph is built and dropped: only Build finds a cycle.
		_, err = wire.ToJob()
	}

	since := r.led.Lock()
	defer func() {
		if serr := r.led.Unlock(since); serr != nil && err == nil {
			err = &service.SubmitError{Code: service.CodeInternal,
				Reason: fmt.Sprintf("journal sync failed; the accepted job may not survive a crash: %v", serr)}
		}
	}()
	r.th.submitted.Inc()
	if err != nil {
		return nil, &service.SubmitError{Code: service.CodeInvalid, Reason: err.Error()}
	}
	if r.draining {
		return nil, &service.SubmitError{Code: service.CodeDraining,
			Reason: "router is draining; not accepting work", RetryAfter: time.Second}
	}
	if _, dup := r.records[wire.Name]; dup {
		return nil, &service.SubmitError{Code: service.CodeDuplicate,
			Reason: fmt.Sprintf("job %q was already submitted", wire.Name)}
	}
	// Write-ahead: the accept is durable before Submit answers, so an
	// acknowledged submission survives a router SIGKILL, and one the
	// journal could not take is refused, as a shard refuses it. The accept
	// is the only record that carries the admission fields (strategy,
	// priority, wire form); every later change to the entry goes through
	// moveLocked.
	if err := r.led.Append(journal.Record{Job: wire.Name, State: StateQueued,
		Strategy: typ.String(), Priority: priority, Wire: &wire}); err != nil {
		return nil, &service.SubmitError{Code: service.CodeInternal,
			Reason: fmt.Sprintf("journal append failed, job not accepted: %v", err)}
	}
	rec := r.newRecordLocked(wire.Name, typ.String(), priority, StateQueued)
	rec.wire = &wire
	r.th.accepted.Inc()
	// The job is bound in the accept's lock section, so the binding shares
	// the accept's fsync and is on disk before the dispatcher sends the
	// handoff. With no closed-breaker shard it stays queued, and the
	// dispatcher binds it once one is.
	if shard, ok := r.eligibleLocked(rec); ok {
		r.moveLocked(rec, evBind, "", shard, "")
	}
	r.pushLocked(rec)
	out := rec.Record
	return &out, nil
}

// moveLocked is the only code that changes a ledger entry's State, Shard,
// Reason or epoch after creation. It looks ev's row up in lifecycle from
// rec.State, with state the outcome a row marked outcome takes, and refuses
// a pair the table does not list, returning false and changing nothing. A
// listed move journals the uniform record {Job, State, Reason, Shard, Epoch},
// which the caller's r.led.Unlock syncs (or, for a mirrored answer, the
// next one that syncs), and counts the transition, so the live ledger
// always equals the fold of its own journal. A failed append is logged;
// the move stands. Caller holds r.mu.
func (r *Router) moveLocked(rec *jobRecord, ev event, state, shard, reason string) bool {
	to, ok := lifecycle[ev][rec.State]
	if to == outcome {
		to, ok = state, service.Terminal(state) && !service.Tombstone(state)
	}
	if !ok {
		return false
	}
	if to == StateQueued {
		rec.Epoch++
	}
	rec.State, rec.Shard, rec.Reason, rec.attempts = to, shard, reason, 0
	if service.Terminal(to) { // every row moves from a non-terminal state
		rec.wire = nil // dispatch sends no terminal entry
		if r.live--; r.live == 0 && r.quiet != nil {
			close(r.quiet)
			r.quiet = nil
		}
	}
	if err := r.led.Append(journal.Record{Job: rec.ID, State: to, Reason: reason, Shard: shard, Epoch: rec.Epoch}); err != nil {
		r.logf("federation: journal append %s/%s: %v", rec.ID, to, err)
	}
	switch to {
	case StateQueued:
		r.th.reallocated.Inc()
	case service.StateCompleted:
		r.th.completed.Inc()
	case service.StateRejected:
		r.th.rejected.Inc()
	case service.StateDrained:
		r.th.drained.Inc()
	}
	if ev == evRevoked || ev == evDrainedAt {
		r.th.revocations.Inc()
	}
	return true
}

// newRecordLocked creates the ledger entry. Caller holds r.mu.
func (r *Router) newRecordLocked(id, strategyName string, priority int, state string) *jobRecord {
	r.seq++
	rec := &jobRecord{Record: service.Record{ID: id, Strategy: strategyName,
		Priority: priority, State: state, Seq: r.seq}}
	r.records[id] = rec
	if !service.Terminal(state) {
		r.live++
	}
	return rec
}

// Job returns the Record of one router ledger entry; an outcome only once
// it is durable.
func (r *Router) Job(id string) (out service.Record, _ bool) {
	r.mu.Lock()
	defer func() { r.led.UnlockShowing(service.Terminal(out.State)) }()
	rec, ok := r.records[id]
	if !ok {
		return service.Record{}, false
	}
	return rec.Record, true
}

// Jobs returns the Records of the ledger in submission order, once the
// states they show are durable.
func (r *Router) Jobs() []service.Record {
	r.mu.Lock()
	defer r.led.Unlock(0)
	out := make([]service.Record, 0, len(r.records))
	for _, rec := range r.records {
		out = append(out, rec.Record)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Draining reports whether Drain has stopped admission.
func (r *Router) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Metrics reads the router counters.
func (r *Router) Metrics() Metrics {
	th := &r.th
	r.mu.Lock()
	defer r.mu.Unlock()
	return Metrics{
		Accepted:    th.accepted.Value(),
		Completed:   th.completed.Value(),
		Rejected:    th.rejected.Value(),
		Drained:     th.drained.Value(),
		Reallocated: th.reallocated.Value(),
		Revocations: th.revocations.Value(),
	}
}

// Quiesced reports whether every ledgered job is terminal.
func (r *Router) Quiesced() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live == 0
}

// Drain stops admission, waits for in-flight jobs to settle (until ctx),
// marks what never dispatched as drained, and stops the loops. The wait is
// on its own channel, not r.cond: a dispatcher's wake-up is a Signal, which
// a drain waiting on the same cond could take. It returns the sync error
// of its drained records, if any, or else ctx's.
func (r *Router) Drain(ctx context.Context) error {
	r.mu.Lock()
	r.draining = true
	if r.quiet == nil {
		r.quiet = make(chan struct{})
	}
	quiet := r.quiet
	if r.live == 0 {
		close(r.quiet)
		r.quiet = nil
	}
	r.mu.Unlock()

	select {
	case <-quiet:
	case <-ctx.Done():
	}

	since := r.led.Lock()
	for _, rec := range r.records {
		r.moveLocked(rec, evDrain, "", rec.Shard, "router shutdown before dispatch")
	}
	err := r.led.Unlock(since)
	r.Close()
	return cmp.Or(err, ctx.Err())
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
