// Package service turns the deterministic VO/metascheduler engine into a
// long-running scheduler service: a bounded admission queue with
// backpressure and priority shedding, deadline-feasibility admission
// control, per-domain circuit breakers, per-job build deadlines, and a
// graceful drain that snapshots still-queued work to disk in the jobio
// wire format.
//
// # Threading model
//
// The simulation engine, the VO and the circuit breakers are confined to
// ONE goroutine (the engine loop started by Start); they are never touched
// from HTTP handlers. Handlers only push into the admission queue and read
// the job registry, both guarded by one mutex. Virtual model time advances
// only inside the engine loop: a submission is mapped to an arrival one
// tick after the engine's current time, the engine runs just past the
// arrival (so the strategy is built and the reservations are booked while
// later start/finish events stay pending), and whenever the queue is empty
// the engine runs to quiescence, completing everything in flight.
//
// # Job lifecycle
//
// A submission is rejected before it enters the queue when the service is
// draining, the wire form is invalid, the ID was seen before (unless a
// newer federation epoch reopens a tombstone, see SubmitEpoch), or the
// deadline is provably unmeetable (shorter than the job's task-only
// critical path on the fastest node tier). A valid job waits in the
// bounded queue ("queued"), is handed to the VO ("scheduled"), and ends in
// exactly one terminal state: "completed", "rejected" (with a reason:
// infeasible, shed under overload, or no feasible allocation), "drained"
// (written to the shutdown snapshot), or "revoked" (taken back by a
// federation router). The table lifecycle lists every move, and moveLocked
// makes each. A full queue sheds the lowest-priority queued job when a
// strictly more important one arrives; otherwise the newcomer is refused
// with a retry hint (HTTP 429).
package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/breaker"
	"repro/internal/dag"
	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// Job lifecycle states as reported by the API.
const (
	StateQueued    = "queued"
	StateScheduled = "scheduled"
	StateCompleted = "completed"
	StateRejected  = "rejected"
	StateDrained   = "drained"
	// StateRevoked is terminal at THIS shard only: a federated router took
	// the job back (still queued, or tombstoned before arrival) to run it
	// elsewhere. The ledger entry persists so the job's idempotency key is
	// refused as a duplicate until a handoff at a higher epoch starts a new
	// life (SubmitEpoch) — the guarantee the cross-shard exactly-once
	// argument rests on.
	StateRevoked = "revoked"
)

// An event is what moves a job's record from one lifecycle state to the
// next; lifecycle says where each leads.
type event uint8

const (
	evAccept     event = iota // admitted: a new life enters the queue
	evInfeasible              // refused at admission by the deadline bound
	evSchedule                // dequeued by the engine loop
	evComplete                // the VO ran it to plan
	evReject                  // the VO rejected or refused it, or recovery cannot rebuild it
	evShed                    // displaced from a full queue by more important work
	evDrain                   // still queued or held at shutdown
	evRevoke                  // taken back by the router, or tombstoned before it arrived
	evRaise                   // revoked again, at a higher epoch, as a tombstone
)

// lifecycle is the service tier's job lifecycle: for each event, the
// state it moves a record from ("" for an ID not yet ledgered) to the state
// it leads to. moveLocked consults it for every state change and refuses a
// pair it does not list. Every row journals {job, state, reason} plus the
// fields it changes, except schedule, which lives in memory only: Restore
// re-enqueues a job whose last record is its accept exactly as it would one
// marked scheduled (the VO's books die with the process either way), so a
// record would cost an fsync per job and tell recovery nothing. Accept and
// infeasible start a life, over a new ID or over a tombstone a strictly
// newer federation epoch outranks (SubmitEpoch).
var lifecycle = [...]map[string]string{
	evAccept:     {"": StateQueued, StateRevoked: StateQueued, StateDrained: StateQueued},
	evInfeasible: {"": StateRejected, StateRevoked: StateRejected, StateDrained: StateRejected},
	evSchedule:   {StateQueued: StateScheduled},
	evComplete:   {StateScheduled: StateCompleted},
	evReject:     {StateScheduled: StateRejected, "": StateRejected},
	evShed:       {StateQueued: StateRejected},
	evDrain:      {StateQueued: StateDrained},
	evRevoke:     {StateQueued: StateRevoked, "": StateRevoked},
	evRaise:      {StateRevoked: StateRevoked, StateDrained: StateDrained},
}

// terminal and live are read off lifecycle once: the states some event
// leads to, and those an event moves a record out of other than by
// starting a life, as one over an unseen ID does, or by keeping the state
// (an epoch raise).
var terminal, live = map[string]bool{}, map[string]bool{}

func init() {
	for _, row := range lifecycle {
		_, life := row[""]
		for from, to := range row {
			terminal[to] = true
			live[from] = live[from] || !life && to != from
		}
	}
}

// Terminal reports whether a state is final: lifecycle leads to it and
// moves a record out of it only into a new life or an epoch raise.
func Terminal(state string) bool { return terminal[state] && !live[state] }

// Tombstone reports whether a terminal state left the job unexecuted here
// (revoked or drained): lifecycle lets a new life start over it.
func Tombstone(state string) bool { return state != "" && lifecycle[evAccept][state] != "" }

// Config tunes the service.
type Config struct {
	// Env is the processor-node environment the VO schedules on. Required.
	Env *resource.Environment
	// Sched is the base VO configuration. The service overwrites Tracer
	// (wrapping any configured one), DomainFilter and BuildCtx to install
	// its own hooks.
	Sched metasched.Config
	// QueueCap bounds the admission queue. Default 64.
	QueueCap int
	// BuildTimeout bounds the wall-clock time of each strategy build: an
	// initial build, a retry's rebuild, one fallback level. It does not
	// bound a job's total across them. Zero means unbounded.
	BuildTimeout time.Duration
	// Breaker, when non-nil, arms a per-domain circuit breaker: a domain
	// whose jobs repeatedly fail stops receiving placements until its open
	// window expires.
	Breaker *breaker.Config
	// SnapshotPath is where Drain writes still-queued jobs (jobio wire
	// format). Empty disables the snapshot; drained jobs are still marked.
	SnapshotPath string
	// Telemetry is the metrics registry backing GET /metrics and the only
	// tally behind Metrics. nil makes New create a private one, so the
	// endpoint always works. A registry serves one server: two would share
	// one tally. The same registry is forwarded to the VO hierarchy
	// (Sched.Telemetry) and the circuit breakers unless those configs
	// already carry their own.
	Telemetry *telemetry.Registry
	// Journal, when non-nil, makes the job lifecycle crash-safe: every
	// transition but the in-memory schedule (queued, completed, rejected,
	// drained, revoked, and a tombstone's epoch raise) is appended under
	// the server's lock, and synced after the lock is released, before it
	// is acknowledged or announced. On startup, Restore replays a recovered
	// journal so accepted jobs survive SIGKILL, OOM and power loss. nil
	// keeps the pre-journal behavior byte-identical.
	Journal *journal.Journal
	// HoldRecovered parks non-terminal jobs found by Restore instead of
	// re-enqueueing them: a federated shard must not re-execute recovered
	// work until the router resends the job's binding, which releases it
	// (ResumeHeld), or revokes it (RevokeEpoch). Every federated shard sets
	// it, since every shard joins its router, which sends those resends.
	// false keeps a lone gridd's behavior: recovered jobs go straight back
	// into the queue.
	HoldRecovered bool
	// OnTerminal, when non-nil, is called exactly once per job the moment
	// its record reaches a terminal state (completed, rejected, drained or
	// revoked), with a copy of the record. It is the push-based
	// terminal-state stream: a federation shard reports terminal states to
	// its router through it (federation.Member.Terminal), and the gridbench
	// workloads tally terminal states with it without polling the job
	// registry. It fires once the transition's journal record is synced,
	// in journal order, while the service's internal lock is held, on the
	// goroutine of the call whose sync covered the record — the one that
	// drove the transition, or one that synced past it first; once a
	// journal fsync has failed, it fires no more. It must
	// return quickly and must not call back into the Server. Jobs restored
	// from the journal already in a terminal state do not re-fire; terminal
	// transitions that happen during Restore (invalid payloads rejected) do.
	OnTerminal func(Record)
}

func (c Config) queueCap() int {
	if c.QueueCap <= 0 {
		return 64
	}
	return c.QueueCap
}

// retryAfter is the hint returned with backpressure rejections.
const retryAfter = time.Second

// SubmitError is a typed admission failure; the HTTP layer maps Code to a
// status.
type SubmitError struct {
	Code   string // "invalid", "duplicate", "infeasible", "overloaded", "draining"
	Reason string
	// RetryAfter is set for overloaded rejections.
	RetryAfter time.Duration
}

// Error implements error.
func (e *SubmitError) Error() string { return fmt.Sprintf("service: %s: %s", e.Code, e.Reason) }

// The SubmitError codes.
const (
	CodeInvalid    = "invalid"
	CodeDuplicate  = "duplicate"
	CodeInfeasible = "infeasible"
	CodeOverloaded = "overloaded"
	CodeDraining   = "draining"
	// CodeInternal covers admission failures inside the service itself —
	// today only a journal append that could not be made durable, in which
	// case the job is NOT accepted (an unjournaled accept could be lost).
	CodeInternal = "internal"
)

// Record is one job's ledger entry as a client sees it, on either tier:
// the service's own, and the core of a federation router's.
type Record struct {
	ID       string `json:"id"`
	Strategy string `json:"strategy"`
	Priority int    `json:"priority"`
	State    string `json:"state"`
	// Shard is the shard a federation router binds the job to; a shard
	// never sets it.
	Shard   string       `json:"shard,omitempty"`
	Reason  string       `json:"reason,omitempty"`
	Domain  string       `json:"domain,omitempty"`
	Arrival simtime.Time `json:"arrival,omitempty"`
	Finish  simtime.Time `json:"finish,omitempty"`
	// Level and Retries are int32 so that a Record, Shard included, fits
	// the 144-byte allocation size class: a record a shard allocates costs
	// nothing for the field only a router sets.
	Level   int32 `json:"level,omitempty"`
	Retries int32 `json:"retries,omitempty"`
	// Epoch is the federation reallocation round: on a shard the one that
	// placed (or revoked) this job there, on a router the job's current
	// one; always 0 outside federation. Revocation tombstones keep the
	// epoch they were planted at, and RevokeEpoch / SubmitEpoch use it to
	// tell a stale replay of an old binding from a deliberate router
	// decision.
	Epoch int    `json:"epoch,omitempty"`
	Seq   uint64 `json:"seq"`
}

// Metrics is the in-process read of the counters that gridd's drain log,
// the examples and the benchmark report: each field is its grid_service_*
// series, EventsFired the grid_service_engine_events_fired gauge. Every
// other number is read from GET /metrics.
type Metrics struct {
	Accepted, Completed, Rejected, Drained, Shed uint64
	EventsFired                                  uint64
}

// RecoveryStats summarizes one journal Restore: how the remembered jobs
// were dispositioned. Surfaced on /healthz.
type RecoveryStats struct {
	// Restored is the total ledger records rebuilt from the journal.
	Restored int `json:"restored"`
	// Requeued is how many non-terminal jobs went back into the admission
	// queue to be scheduled again.
	Requeued int `json:"requeued"`
	// Held is how many non-terminal jobs were parked (Config.HoldRecovered)
	// awaiting the router's resend or revocation instead of being requeued.
	Held int `json:"held,omitempty"`
	// Terminal is how many jobs were already terminal; they are ledgered
	// so the duplicate-submit guard holds across the restart but are never
	// re-executed.
	Terminal int `json:"terminal"`
	// DuplicatesSuppressed counts journal entries skipped because the ID
	// was already ledgered (a second Restore, or overlapping histories).
	DuplicatesSuppressed int `json:"duplicatesSuppressed"`
	// Invalid counts non-terminal journal entries whose payload no longer
	// builds (or carried no wire form); they are ledgered as rejected.
	Invalid int `json:"invalid"`
	// TornBytes is carried over from the journal replay: trailing bytes
	// discarded as a torn tail.
	TornBytes int64 `json:"tornBytes,omitempty"`
	// LastLSN is the journal position recovery caught up to.
	LastLSN uint64 `json:"lastLSN"`
	// ReplaySeconds is the wall-clock cost of Restore.
	ReplaySeconds float64 `json:"replaySeconds"`
}

// entry is one queued submission.
type entry struct {
	rec  *Record
	job  *dag.Job // deadline still relative; rebased at arrival
	wire jobio.Job
	typ  strategy.Type
	enq  time.Time // wall-clock enqueue instant, for the queue-wait histogram
}

// Server is the long-running scheduler service.
type Server struct {
	cfg      Config
	engine   *sim.Engine
	vo       *metasched.VO
	breakers *breaker.Set // nil when disabled; engine goroutine only

	telem *telemetry.Registry // never nil after New
	spans *telemetry.Tracer   // nil unless Sched.Spans configured
	th    telemetryHandles

	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*entry
	held     map[string]*entry // parked recovered jobs (Config.HoldRecovered)
	records  map[string]*Record
	order    []string // record IDs in submission order
	seq      uint64
	draining bool
	recovery *RecoveryStats // set by Restore; nil before

	// drainDone is closed (and drainErr set) when the first Drain call
	// finishes; later callers wait on it instead of racing the first.
	drainDone chan struct{}
	drainErr  error

	loopDone chan struct{} // closed when the engine loop exits; nil before Start

	// passes counts the engine loop's finished passes, each of which ends
	// with a broadcast on cond; current is the batch of the pass under way,
	// nil between passes. Settle waits on them.
	passes  uint64
	current []*entry

	// led journals every move made under mu and owes OnTerminal the
	// terminal ones; its Unlock syncs them before the call answers.
	led *journal.Ledger[Record]
}

// telemetryHandles caches the service's registry handles so every counter
// bump is one atomic op — the registry map is never consulted on the
// request or engine path. Counters move under s.mu, so Metrics, which reads
// them under s.mu too, sees every transition whole. The engine gauges are
// the engine clock as of the last completed processing step: the live
// engine is owned by the loop goroutine and must not be read from handlers.
type telemetryHandles struct {
	submitted, accepted, completed, rejected *telemetry.Counter
	shed, infeasible, overloaded, drained    *telemetry.Counter
	revoked, resurrected                     *telemetry.Counter
	queueDepth, queueHighWater               *telemetry.Gauge
	engineNow, eventsFired                   *telemetry.Gauge
	queueWait                                *telemetry.Histogram
}

func newTelemetryHandles(reg *telemetry.Registry) telemetryHandles {
	return telemetryHandles{
		submitted:      reg.Counter("grid_service_submitted_total", "jobs offered to the admission queue"),
		accepted:       reg.Counter("grid_service_accepted_total", "jobs admitted into the queue"),
		completed:      reg.Counter("grid_service_completed_total", "jobs that ran to plan"),
		rejected:       reg.Counter("grid_service_rejected_total", "jobs that ended rejected (any reason)"),
		shed:           reg.Counter("grid_service_shed_total", "queued jobs displaced by higher-priority arrivals"),
		infeasible:     reg.Counter("grid_service_infeasible_total", "submissions rejected by deadline admission control"),
		overloaded:     reg.Counter("grid_service_overloaded_total", "submissions refused with backpressure"),
		drained:        reg.Counter("grid_service_drained_total", "queued jobs snapshotted at shutdown"),
		revoked:        reg.Counter("grid_service_revoked_total", "jobs revoked by the federation router (incl. tombstones)"),
		resurrected:    reg.Counter("grid_service_resurrected_total", "tombstones a newer federation epoch started a new life over"),
		queueDepth:     reg.Gauge("grid_service_queue_depth", "current admission-queue length"),
		queueHighWater: reg.Gauge("grid_service_queue_high_water", "maximum admission-queue length observed"),
		engineNow:      reg.Gauge("grid_service_engine_now", "model time as of the last completed step"),
		eventsFired:    reg.Gauge("grid_service_engine_events_fired", "simulation events fired so far"),
		queueWait: reg.Histogram("grid_service_queue_wait_seconds",
			"wall time jobs spent in the admission queue", nil),
	}
}

// New builds a server over env. The engine loop is not started; call Start,
// or drive the server manually with Process/Quiesce in tests.
func New(cfg Config) (*Server, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("service: Config.Env is required")
	}
	s := &Server{
		cfg:     cfg,
		engine:  sim.New(),
		records: make(map[string]*Record),
		held:    make(map[string]*entry),
	}
	s.cond = sync.NewCond(&s.mu)
	s.led = journal.NewLedger(&s.mu, cfg.Journal, cfg.OnTerminal)
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	s.telem = cfg.Telemetry
	if s.telem == nil {
		s.telem = telemetry.NewRegistry()
	}
	s.th = newTelemetryHandles(s.telem)
	s.spans = cfg.Sched.Spans
	if cfg.Breaker != nil {
		bc := *cfg.Breaker
		if bc.Telemetry == nil {
			bc.Telemetry = s.telem
		}
		s.breakers = breaker.NewSet(bc)
	}

	sched := cfg.Sched
	if sched.Telemetry == nil {
		sched.Telemetry = s.telem
	}
	userTracer := sched.Tracer
	sched.Tracer = metasched.TracerFunc(func(e metasched.Event) {
		s.onEvent(e)
		if userTracer != nil {
			userTracer.Trace(e)
		}
	})
	if s.breakers != nil {
		sched.DomainFilter = func(domain string) bool {
			return s.breakers.Allow(domain, s.engine.Now())
		}
	}
	sched.BuildCtx = s.jobBuildCtx
	s.vo = metasched.NewVO(s.engine, cfg.Env, sched)
	return s, nil
}

// jobBuildCtx hands the VO the context bounding one build: BuildTimeout
// under the root context, which Drain cancels. Runs on the engine goroutine.
func (s *Server) jobBuildCtx(string) (context.Context, context.CancelFunc) {
	if s.cfg.BuildTimeout > 0 {
		return context.WithTimeout(s.rootCtx, s.cfg.BuildTimeout)
	}
	return s.rootCtx, func() {}
}

// onEvent is the service's tracer hook: it keeps the registry current and
// feeds the circuit breakers. Runs on the engine goroutine.
func (s *Server) onEvent(e metasched.Event) {
	now := e.At
	if s.breakers != nil && e.Domain != "" {
		switch e.Kind {
		case metasched.EventComplete:
			s.breakers.Success(e.Domain, now)
		case metasched.EventTaskFailed, metasched.EventNodeDown:
			// A whole-domain outage is a definitive failure signal.
			s.breakers.Failure(e.Domain, now)
		}
	}

	defer s.led.Unlock(s.led.Lock())
	rec, ok := s.records[e.Job]
	if !ok {
		return
	}
	switch e.Kind {
	case metasched.EventActivate:
		rec.Domain = e.Domain
		rec.Level = int32(e.Level)
	case metasched.EventReallocate:
		rec.Domain = e.Domain
	case metasched.EventRetry:
		rec.Retries = int32(e.Level)
	case metasched.EventComplete:
		rec.Finish = now
		s.moveLocked(rec, evComplete, "", journal.Record{})
	case metasched.EventReject:
		rec.Finish = now
		s.moveLocked(rec, evReject, "no feasible allocation", journal.Record{})
	}
}

// errRefused is moveLocked's answer to a pair lifecycle does not list.
var errRefused = errors.New("service: move not in the job lifecycle")

// moveLocked is the only code that changes a record's State: it looks ev's
// row up in lifecycle from rec.State and refuses a pair the table does not
// list with errRefused, changing nothing. A listed move appends its
// journal record — jr plus {job, state, reason} — before anything else; the
// caller's s.led.Unlock syncs it before the call answers. An accept the
// journal refuses changes nothing and returns the append error (an
// unjournaled accept could be silently lost), while every other move stands
// and the journal counts the failure. A move that starts a life resets the
// record to the admission fields of jr; a move from "" ledgers rec. A move
// into a terminal state bumps its counter and owes one OnTerminal, which
// s.led.Unlock fires once the record is synced, so an observer never learns
// of a transition a crash could forget.
// Callers hold s.mu, so the per-job record order on disk matches the
// in-memory transition order.
func (s *Server) moveLocked(rec *Record, ev event, reason string, jr journal.Record) error {
	from := rec.State
	to, ok := lifecycle[ev][from]
	if !ok {
		return errRefused
	}
	if ev != evSchedule {
		jr.Job, jr.State, jr.Reason = rec.ID, to, reason
		if err := s.led.Append(jr); err != nil && ev == evAccept {
			return err
		}
	}
	switch {
	case ev == evAccept || ev == evInfeasible:
		if from != "" {
			s.th.resurrected.Inc()
		}
		*rec = Record{ID: rec.ID, Strategy: jr.Strategy, Priority: jr.Priority, Epoch: jr.Epoch, Seq: rec.Seq}
	case jr.Epoch != 0:
		rec.Epoch = jr.Epoch
	}
	if from == "" {
		s.ledgerLocked(rec)
	}
	rec.State, rec.Reason = to, reason
	if !Terminal(to) || to == from {
		return nil
	}
	switch to {
	case StateCompleted:
		s.th.completed.Inc()
	case StateRejected:
		s.th.rejected.Inc()
	case StateDrained:
		s.th.drained.Inc()
	case StateRevoked:
		s.th.revoked.Inc()
	}
	s.led.Owe(*rec)
	return nil
}

// enqueueLocked puts e on the admission queue, publishes the new depth and
// wakes the engine loop. Callers hold s.mu.
func (s *Server) enqueueLocked(e *entry) {
	s.queue = append(s.queue, e)
	d := len(s.queue)
	s.th.queueDepth.Set(float64(d))
	if float64(d) > s.th.queueHighWater.Value() {
		s.th.queueHighWater.Set(float64(d))
	}
	s.cond.Broadcast()
}

// minDeadline is the provable lower bound on a job's makespan: the
// task-only critical path under the fastest (tier-1) estimates. Transfers
// are excluded because S3-family clustering can elide them; a deadline
// below even this optimistic bound can never be met.
func minDeadline(job *dag.Job) simtime.Time {
	return job.CriticalPathLength(dag.WeightFunc{
		Edge: func(dag.Edge) simtime.Time { return 0 },
	})
}

// Submit validates and admits one wire-form job. The wire Deadline is a
// relative QoS budget: the absolute deadline becomes arrival + Deadline
// when the job is handed to the engine. priority orders overload shedding
// (higher is more important). Submit is SubmitEpoch at epoch 0, which no
// tombstone yields to, except that it syncs the accept before it returns:
// its answer is the client's acknowledgement.
func (s *Server) Submit(wire jobio.Job, strategyName string, priority int) (*Record, error) {
	return s.submit(wire, strategyName, priority, 0, true)
}

// SubmitEpoch is Submit carrying a federation reallocation epoch, which
// the admitted record keeps. An ID already in the ledger is refused as a
// duplicate, with the existing record returned, unless its entry is a
// tombstone (revoked or drained here) that epoch strictly outranks: a
// router mints a higher epoch only after confirming the job runs nowhere,
// so the tombstone starts a new life in place, keeping its ID and Seq,
// under exactly the rules a first admission follows. The accept is
// appended but not synced: the caller answers a handoff only after Settle,
// whose sync covers it, and on an idle engine that is the outcome's sync.
func (s *Server) SubmitEpoch(wire jobio.Job, strategyName string, priority, epoch int) (*Record, error) {
	return s.submit(wire, strategyName, priority, epoch, false)
}

// submit is Submit and SubmitEpoch, inside the admission span; durable says
// whether the accept is synced before it returns.
func (s *Server) submit(wire jobio.Job, strategyName string, priority, epoch int, durable bool) (_ *Record, err error) {
	sp := s.spans.Start("service.submit", 0)
	sp.SetStr("job", wire.Name)
	defer func() {
		outcome := "accepted"
		if se, ok := err.(*SubmitError); ok {
			outcome = se.Code
		} else if err != nil {
			outcome = "error"
		}
		sp.SetStr("outcome", outcome).End()
	}()
	typ, err := strategy.ParseType(strategyName)
	if err != nil {
		return nil, &SubmitError{Code: CodeInvalid, Reason: err.Error()}
	}
	job, err := wire.ToJob()
	if err != nil {
		return nil, &SubmitError{Code: CodeInvalid, Reason: err.Error()}
	}
	bound := minDeadline(job)
	since := s.led.Lock()
	defer func() {
		if !durable && err == nil {
			since = s.led.LSN() // the accept rides the caller's sync
		}
		if serr := s.led.Unlock(since); serr != nil && err == nil {
			err = &SubmitError{Code: CodeInternal,
				Reason: fmt.Sprintf("journal sync failed; the accepted job may not survive a crash: %v", serr)}
		}
	}()
	// A ledgered ID is a duplicate unless it is a tombstone epoch outranks.
	prior := s.records[wire.Name]
	duplicate := prior != nil && !(Tombstone(prior.State) && epoch > prior.Epoch)
	if simtime.Time(wire.Deadline) < bound {
		if duplicate {
			return prior.clone(), duplicateError(wire.Name)
		}
		s.th.submitted.Inc()
		s.th.infeasible.Inc()
		// Ledger the rejection durably too: the duplicate-submit guard must
		// give the same answer for this ID after a restart. A new life
		// starts in the tombstone it outranks, or in a record its first
		// move ledgers.
		rec := cmp.Or(prior, &Record{ID: wire.Name})
		s.moveLocked(rec, evInfeasible,
			fmt.Sprintf("infeasible: deadline %d is below the fastest-tier critical path %d", wire.Deadline, bound),
			journal.Record{Strategy: typ.String(), Priority: priority, Epoch: epoch})
		return rec.clone(), &SubmitError{Code: CodeInfeasible, Reason: rec.Reason}
	}
	s.th.submitted.Inc()
	if s.draining {
		return nil, &SubmitError{
			Code:       CodeDraining,
			Reason:     "service is draining; not accepting work",
			RetryAfter: retryAfter,
		}
	}
	if duplicate {
		return prior.clone(), duplicateError(wire.Name)
	}
	if len(s.queue) >= s.cfg.queueCap() {
		victim := s.shedCandidateLocked(priority)
		if victim < 0 {
			s.th.overloaded.Inc()
			return nil, &SubmitError{
				Code:       CodeOverloaded,
				Reason:     fmt.Sprintf("admission queue full (%d)", s.cfg.queueCap()),
				RetryAfter: retryAfter,
			}
		}
		// The shed and the accept that displaces it share one lock section,
		// so no other call takes the freed slot, and one sync.
		s.shedLocked(victim)
	}
	// Write-ahead: the accept is journaled before the job exists anywhere
	// in memory, and synced before it is acknowledged (here, or by the
	// handoff's Settle), so an acknowledged submission survives any crash.
	rec := cmp.Or(prior, &Record{ID: wire.Name})
	if err := s.moveLocked(rec, evAccept, "", journal.Record{
		Strategy: typ.String(), Priority: priority, Wire: &wire, Epoch: epoch,
	}); err != nil {
		return nil, &SubmitError{Code: CodeInternal,
			Reason: fmt.Sprintf("journal append failed, job not accepted: %v", err)}
	}
	s.th.accepted.Inc()
	s.enqueueLocked(&entry{rec: rec, job: job, wire: wire, typ: typ, enq: time.Now()})
	return rec.clone(), nil
}

func duplicateError(id string) *SubmitError {
	return &SubmitError{Code: CodeDuplicate, Reason: fmt.Sprintf("job %q was already submitted", id)}
}

// ledgerLocked enters rec in the registry under the next Seq.
func (s *Server) ledgerLocked(rec *Record) {
	s.seq++
	rec.Seq = s.seq
	s.records[rec.ID] = rec
	s.order = append(s.order, rec.ID)
}

// shedCandidateLocked returns the queue index of the job to shed for an
// arrival of the given priority: the lowest-priority queued job, newest
// first among ties — and only if it is strictly less important than the
// newcomer. -1 means nobody yields.
func (s *Server) shedCandidateLocked(priority int) int {
	best := -1
	for i, e := range s.queue {
		if best < 0 ||
			e.rec.Priority < s.queue[best].rec.Priority ||
			(e.rec.Priority == s.queue[best].rec.Priority && e.rec.Seq > s.queue[best].rec.Seq) {
			best = i
		}
	}
	if best >= 0 && s.queue[best].rec.Priority < priority {
		return best
	}
	return -1
}

// shedLocked removes queue[i] as an overload victim.
func (s *Server) shedLocked(i int) {
	e := s.queue[i]
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
	s.th.queueDepth.Set(float64(len(s.queue)))
	s.moveLocked(e.rec, evShed, "shed: displaced by higher-priority work under overload", journal.Record{})
	s.th.shed.Inc()
}

// dequeueLocked pops the most important queued entry (highest priority,
// oldest among ties).
func (s *Server) dequeueLocked() *entry {
	best := -1
	for i, e := range s.queue {
		if best < 0 ||
			e.rec.Priority > s.queue[best].rec.Priority ||
			(e.rec.Priority == s.queue[best].rec.Priority && e.rec.Seq < s.queue[best].rec.Seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	e := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	s.th.queueDepth.Set(float64(len(s.queue)))
	return e
}

// dequeueBatchLocked pops up to max entries in dequeue order, forming one
// same-tick arrival batch (placers > 1).
func (s *Server) dequeueBatchLocked(max int) []*entry {
	var out []*entry
	for len(out) < max {
		e := s.dequeueLocked()
		if e == nil {
			break
		}
		out = append(out, e)
	}
	return out
}

// placers returns the effective arrival batch width (≥ 1).
func (s *Server) placers() int {
	if s.cfg.Sched.Placers < 1 {
		return 1
	}
	return s.cfg.Sched.Placers
}

// Start launches the engine loop. Call at most once.
func (s *Server) Start() {
	s.mu.Lock()
	s.loopDone = make(chan struct{})
	s.mu.Unlock()
	go s.loop()
}

// loop is the engine goroutine: it owns the simulation engine, the VO and
// the breakers for the server's whole life.
func (s *Server) loop() {
	defer close(s.loopDone)
	for {
		s.mu.Lock()
		if s.current != nil {
			s.passes++
			s.current = nil
			s.cond.Broadcast()
		}
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.draining {
			s.mu.Unlock()
			return
		}
		batch := s.dequeueBatchLocked(s.placers())
		s.current = batch
		s.mu.Unlock()
		s.process(batch)
		s.mu.Lock()
		idle := len(s.queue) == 0
		s.mu.Unlock()
		if idle {
			// Nothing waiting: fast-forward the virtual clock so everything
			// in flight completes.
			s.engine.Run()
		}
		s.publishEngineStats()
	}
}

// Settle waits for an idle engine to decide a job it just admitted, and
// returns the job's record as it then stands. It waits only when the engine
// loop runs (Start), the service is not draining and the
// job is either the admission queue's only entry or in the pass under way
// with nothing queued behind it; otherwise it returns at once. The wait
// ends with the pass that takes the job: a pass that finds the queue empty
// runs the engine to quiescence, so the record is then completed or
// rejected, while one that finds more work leaves it scheduled. Drain and
// ctx end the wait early, with the record as it stands. Whatever it shows,
// Settle returns once every record the server journaled is on disk, so a
// handoff answered from it names only durable state: the accept
// SubmitEpoch left unsynced, and the outcome when there is one. It returns
// that sync's error, if any: the record may then name state a crash would
// take back, and must not be acknowledged.
func (s *Server) Settle(ctx context.Context, id string) (_ Record, err error) {
	s.mu.Lock()
	defer func() { err = s.led.Unlock(0) }()
	rec := s.records[id]
	if rec == nil {
		return Record{}, nil
	}
	if s.loopDone == nil || s.draining {
		return *rec, nil
	}
	var want uint64
	switch {
	case len(s.queue) == 1 && s.queue[0].rec == rec:
		// The loop's next pass takes it: after the one under way, if any.
		want = s.passes + 1
		if s.current != nil {
			want++
		}
	case len(s.queue) == 0 && slices.ContainsFunc(s.current, func(e *entry) bool { return e.rec == rec }):
		want = s.passes + 1
	default:
		return *rec, nil
	}
	stop := context.AfterFunc(ctx, s.kick)
	defer stop()
	for s.passes < want && !Terminal(rec.State) && !s.draining && ctx.Err() == nil {
		s.cond.Wait()
	}
	return *rec, nil
}

// kick wakes every goroutine waiting on the server's cond, so a Settle
// whose context ended sees it.
func (s *Server) kick() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// publishEngineStats copies the engine clock into the engine gauges;
// engine goroutine (or manual-mode driver) only.
func (s *Server) publishEngineStats() {
	s.th.engineNow.Set(float64(s.engine.Now()))
	s.th.eventsFired.Set(float64(s.engine.Fired()))
}

// process hands one dequeued arrival batch (up to the batch width; one
// job at width 1) to the VO and advances the engine just past its arrival:
// the strategies are built and their windows reserved, while the
// start/finish events stay pending so the jobs are genuinely in flight.
// Every entry shares one arrival tick, so the VO places a wider batch as
// one same-tick batch, with each record's admission priority carried into
// the arbiter's order: the higher priority plans first.
// Engine goroutine only (or the test driver in manual mode).
func (s *Server) process(batch []*entry) {
	sp := s.spans.Start("service.process", 0)
	sp.SetInt("jobs", int64(len(batch)))
	arrival := s.engine.Now() + 1
	for _, e := range batch {
		if !e.enq.IsZero() {
			s.th.queueWait.Observe(telemetry.Since(e.enq))
		}
		job := e.job.WithDeadline(arrival + simtime.Time(e.wire.Deadline))
		s.mu.Lock()
		// A dequeued record is queued, and nothing else moves it: RevokeEpoch
		// answers ErrInFlight for a job off the queue, and Drain waits for
		// this loop to stop.
		s.moveLocked(e.rec, evSchedule, "", journal.Record{})
		e.rec.Arrival = arrival
		s.mu.Unlock()
		if err := s.vo.SubmitPrio(job, e.typ, arrival, e.rec.Priority); err != nil {
			since := s.led.Lock()
			s.moveLocked(e.rec, evReject, err.Error(), journal.Record{})
			s.led.Unlock(since)
		}
	}
	s.engine.RunUntil(arrival + 1)
	sp.SetStr("result", "scheduled").End()
}

// Process dequeues and schedules up to n queued jobs synchronously (all of
// them when n < 0) and reports how many it handled. With placers > 1 the
// dequeued jobs form arrival batches of up to the batch width. Manual-mode
// driver for deterministic tests; never call concurrently with Start.
func (s *Server) Process(n int) int {
	done := 0
	for n < 0 || done < n {
		max := s.placers()
		if n >= 0 && n-done < max {
			max = n - done
		}
		s.mu.Lock()
		batch := s.dequeueBatchLocked(max)
		s.mu.Unlock()
		if len(batch) == 0 {
			break
		}
		s.process(batch)
		done += len(batch)
	}
	s.publishEngineStats()
	return done
}

// Quiesce runs the engine until no events remain. Manual-mode counterpart
// of the loop's idle fast-forward.
func (s *Server) Quiesce() simtime.Time {
	t := s.engine.Run()
	s.publishEngineStats()
	return t
}

// ErrInFlight is returned by RevokeEpoch for a job the engine already
// owns: it was dequeued (scheduled or about to be), so it can no longer be
// taken back — it will reach a terminal state here.
var ErrInFlight = fmt.Errorf("service: job is in flight and cannot be revoked")

// RevokeEpoch takes a job back on behalf of a federation router so it can
// be reallocated to another shard. The outcome is encoded in the returned
// record's state:
//
//   - still queued (or held from recovery): removed and marked revoked —
//     the shard will never execute it;
//   - never seen: a terminal "revoked" tombstone is planted under the ID,
//     so a delayed handoff that arrives later is refused as a duplicate
//     (this closes the reorder race that would double-execute);
//   - a tombstone (revoked or drained): its epoch rises to the request's,
//     its state kept;
//   - otherwise terminal: the existing record is returned unchanged;
//   - dequeued by the engine: ErrInFlight — the router must keep the job
//     bound to this shard and wait for its terminal state.
//
// epoch is the router's reallocation epoch. It makes revocation safe
// against replayed RPCs: a record placed at a higher epoch than the
// request's was bound here by a NEWER router decision, so the (necessarily
// stale) revocation is refused with ErrInFlight instead of yanking a
// legitimate placement. Revoking a tombstone raises its epoch to the
// request's, so stale handoff replays of the just-revoked binding stay
// refused. RevokeEpoch is idempotent: repeating it returns the same terminal
// record. A revocation is confirmed only once it is durable: whatever it
// answers, RevokeEpoch first syncs through the server's newest record, as a
// read that shows an outcome does, so a repeated revoke of a tombstone
// whose own sync failed is not confirmed from memory; when the sync fails
// it returns that error in place of either answer.
func (s *Server) RevokeEpoch(id, reason string, epoch int) (_ Record, err error) {
	s.mu.Lock()
	defer func() { err = cmp.Or(s.led.Unlock(0), err) }()
	rec := s.records[id]
	switch {
	case rec == nil:
		// Tombstone: ledger the ID as revoked before any handoff ever landed.
		rec = &Record{ID: id, Strategy: strategy.Type(0).String()}
		s.moveLocked(rec, evRevoke, "revoked before arrival: "+reason, journal.Record{Epoch: epoch})
	case rec.Epoch > epoch:
		// A newer router decision placed the job here: the revoke is stale.
	case s.unqueueLocked(id):
		s.moveLocked(rec, evRevoke, reason, journal.Record{Epoch: epoch})
	case epoch > rec.Epoch:
		s.moveLocked(rec, evRaise, reason, journal.Record{Epoch: epoch})
	}
	if Terminal(rec.State) {
		return *rec, nil
	}
	return *rec, ErrInFlight
}

// unqueueLocked takes id's entry off the queue or out of the held set and
// reports whether it was there: only then is its record queued and not yet
// the engine's.
func (s *Server) unqueueLocked(id string) bool {
	if _, ok := s.held[id]; ok {
		delete(s.held, id)
		return true
	}
	for i, e := range s.queue {
		if e.rec.ID == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.th.queueDepth.Set(float64(len(s.queue)))
			return true
		}
	}
	return false
}

// ResumeHeld releases a parked recovered job back into the admission queue
// — the router's current binding sent it here again, so this shard still
// owns it. It reports whether id was held; an unknown or already-released
// id is ignored.
func (s *Server) ResumeHeld(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.held[id]
	if ok {
		delete(s.held, id)
		s.enqueueLocked(e)
	}
	return ok
}

// Drain gracefully shuts the service down: admissions stop, the engine
// loop exits, still-queued jobs are snapshotted to disk (jobio wire form)
// and marked drained, and in-flight jobs are run to completion — bounded
// by ctx, whose end cancels their builds and gives the engine one last
// chance to settle. The VO is closed at the end.
//
// Drain is idempotent: concurrent or repeated calls never snapshot twice
// or race the first — later callers wait for the first drain to finish
// (or their own ctx) and return its error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		done := s.drainDone
		s.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
		s.mu.Lock()
		err := s.drainErr
		s.mu.Unlock()
		return err
	}
	s.draining = true
	s.drainDone = make(chan struct{})
	s.cond.Broadcast()
	s.mu.Unlock()
	err := s.drain(ctx)
	s.mu.Lock()
	s.drainErr = err
	s.mu.Unlock()
	close(s.drainDone)
	return err
}

// drain is the single-flight body of Drain.
func (s *Server) drain(ctx context.Context) error {
	sp := s.spans.Start("service.drain", 0)
	defer sp.End()

	// Wait for the engine loop to exit; afterwards this goroutine is the
	// engine's sole owner (the channel close is the happens-before edge).
	if s.loopDone != nil {
		select {
		case <-s.loopDone:
		case <-ctx.Done():
			// The loop only blocks inside a build; cut it and keep waiting —
			// builds observe cancellation at their next checkpoint.
			s.rootCancel()
			<-s.loopDone
		}
	}

	if err := s.snapshotQueued(); err != nil {
		return err
	}

	// Finish what is in flight, within ctx: its end cancels the builds.
	stop := context.AfterFunc(ctx, s.rootCancel)
	s.engine.Run()
	stop()
	s.publishEngineStats()

	s.vo.Close()
	s.rootCancel()
	// Fold the final states into a compaction snapshot so the journal
	// directory is a handful of files after a clean shutdown.
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Compact(); err != nil {
			return fmt.Errorf("service: journal compact on drain: %w", err)
		}
	}
	return nil
}

// snapshotQueued writes every still-queued or held job to the snapshot file,
// then marks it drained. With no SnapshotPath the jobs are only marked. The
// write is atomic and durable (temp file, fsync, rename, dir fsync): a crash
// mid-drain leaves either no snapshot or a complete one, never a truncated
// file. When the write fails the jobs stay queued, as the journal still
// records them, so a restart runs them.
func (s *Server) snapshotQueued() error {
	s.mu.Lock()
	// Held recovered jobs drain like queued ones: they are accepted work
	// this shard still owes an answer for.
	entries := append([]*entry(nil), s.queue...)
	for _, e := range s.held {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].rec.Seq < entries[b].rec.Seq })
	path := s.cfg.SnapshotPath
	s.mu.Unlock()
	if len(entries) > 0 && path != "" {
		wires := make([]jobio.Job, len(entries))
		for i, e := range entries {
			wires[i] = e.wire
		}
		if err := atomicfile.WriteFile(path, func(w io.Writer) error {
			return jobio.WriteJobs(w, wires)
		}); err != nil {
			return fmt.Errorf("service: snapshot: %w", err)
		}
	}

	defer s.led.Unlock(s.led.Lock())
	for _, e := range entries {
		// A RevokeEpoch may have taken the job back while the lock was free:
		// lifecycle drains no revoked record.
		s.moveLocked(e.rec, evDrain, "drained to snapshot on shutdown", journal.Record{})
	}
	s.queue = nil
	clear(s.held)
	s.th.queueDepth.Set(0)
	return nil
}

// Restore rebuilds the service's state from a journal recovery. Call it
// after New and before Start (or any Submit). Terminal jobs are ledgered
// so the duplicate-submit guard survives the restart but are never
// re-executed; non-terminal jobs (queued or scheduled when the process
// died) are re-enqueued through the same duplicate guard as client
// submissions — so across any crash/restart sequence an accepted job
// reaches a terminal state exactly once. Restore itself is idempotent: a
// second call finds every ID already ledgered and suppresses it.
func (s *Server) Restore(rec *journal.Recovery) (RecoveryStats, error) {
	if rec == nil {
		return RecoveryStats{}, nil
	}
	start := time.Now()
	stats := RecoveryStats{TornBytes: rec.TornBytes, LastLSN: rec.LastLSN}

	since := s.led.Lock()
	for _, js := range rec.Jobs {
		if _, ok := s.records[js.Job]; ok {
			stats.DuplicatesSuppressed++
			continue
		}
		typ, err := strategy.ParseType(js.Strategy)
		r := &Record{ID: js.Job, Strategy: typ.String(), Priority: js.Priority}
		stats.Restored++
		if Terminal(js.State) {
			r.State, r.Reason, r.Epoch = js.State, js.Reason, js.Epoch
			s.ledgerLocked(r)
			stats.Terminal++
			continue
		}
		// Non-terminal: rebuild and re-enqueue. A journal entry that can
		// no longer build (lost wire form, unknown strategy, invalid
		// graph) is ledgered as rejected rather than dropped silently.
		var job *dag.Job
		switch {
		case js.Wire == nil:
			err = errors.New("journal entry has no wire payload")
		case err == nil:
			job, err = js.Wire.ToJob()
		}
		if err != nil {
			s.moveLocked(r, evReject, fmt.Sprintf("recovery: %v", err), journal.Record{})
			stats.Invalid++
			continue
		}
		r.State, r.Epoch = StateQueued, js.Epoch
		s.ledgerLocked(r)
		e := &entry{rec: r, job: job, wire: *js.Wire, typ: typ}
		if s.cfg.HoldRecovered {
			// Park it: the router's resent binding releases the job
			// (ResumeHeld) or its revocation takes it back (RevokeEpoch).
			// Until then it must not execute.
			s.held[js.Job] = e
			stats.Held++
		} else {
			s.enqueueLocked(e)
			stats.Requeued++
		}
		// Nothing to journal: the journal this recovery came from already
		// holds the job's accept, and the compaction below keeps it.
		s.th.accepted.Inc()
	}
	stats.ReplaySeconds = time.Since(start).Seconds()
	s.recovery = &stats
	s.led.Unlock(since)

	// Fold the restored state into a fresh snapshot: replay cost stays
	// bounded no matter how many crash/restart cycles the journal lived
	// through.
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Compact(); err != nil {
			return stats, fmt.Errorf("service: compact after restore: %w", err)
		}
	}
	return stats, nil
}

// Recovery returns the stats of the last Restore, or nil when none ran.
func (s *Server) Recovery() *RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovery == nil {
		return nil
	}
	cp := *s.recovery
	return &cp
}

// Job returns a copy of the record for id; an outcome only once it is
// durable.
func (s *Server) Job(id string) (out Record, _ bool) {
	s.mu.Lock()
	defer func() { s.led.UnlockShowing(Terminal(out.State)) }()
	rec, ok := s.records[id]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// Jobs returns copies of every record in submission order, once the
// states they show are durable.
func (s *Server) Jobs() []Record {
	s.mu.Lock()
	defer s.led.Unlock(0)
	out := make([]Record, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.records[id])
	}
	return out
}

// Metrics reads the counters. Safe from any goroutine.
func (s *Server) Metrics() Metrics {
	th := &s.th
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		Accepted:    th.accepted.Value(),
		Completed:   th.completed.Value(),
		Rejected:    th.rejected.Value(),
		Drained:     th.drained.Value(),
		Shed:        th.shed.Value(),
		EventsFired: uint64(th.eventsFired.Value()),
	}
}

// BreakerStates returns every domain breaker's state at the engine's
// current time. Engine goroutine (or manual mode) only — GET /metrics
// carries the handler-safe view, the grid_breaker_state gauges.
func (s *Server) BreakerStates() map[string]string {
	if s.breakers == nil {
		return nil
	}
	return s.breakers.States(s.engine.Now())
}

// Draining reports whether the service has stopped admitting work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Results exposes the VO's finished-job records; safe only after Drain (or
// between manual-mode steps).
func (s *Server) Results() []*metasched.JobResult { return s.vo.Results() }

// clone copies a record for return to callers outside the lock.
func (r *Record) clone() *Record {
	cp := *r
	return &cp
}
