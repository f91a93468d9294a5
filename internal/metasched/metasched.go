// Package metasched implements the job-flow level of the paper's
// hierarchical scheduling framework (Fig. 1): a metascheduler distributes
// user job flows between processor-node domains; one job manager per
// domain generates and maintains strategies against its local calendars;
// and a dynamic-environment injector models the independent background
// load that invalidates supporting schedules.
//
// Lifecycle of one job:
//
//  1. The metascheduler assigns the job to the least-loaded domain.
//  2. The domain's job manager generates the strategy (strategy.Generate)
//     and activates the cheapest admissible distribution, reserving its
//     windows in the live node calendars.
//  3. While the job is still waiting to start, an external reservation may
//     claim one of its windows: the plan is evicted, its time-to-live
//     recorded, and the manager re-anchors the next supporting level at
//     the current time (§2's "special reallocation mechanism ... executed
//     on the higher-level manager or on the metascheduler-level").
//  4. A job whose manager runs out of levels is handed back to the
//     metascheduler for reallocation to another domain; if that fails too,
//     the job is rejected — a QoS miss.
//  5. Once the first task starts, the allocation is guaranteed (advance
//     reservations, §5) and the job runs to its planned finish — unless
//     fault injection is enabled, in which case a node outage or a mid-run
//     task failure can kill the running job and send it through the
//     recovery ladder below.
//
// Fault injection (Config.Faults, see internal/faults) breaks the benign
// model deliberately: node and domain outages void the affected calendars
// and evict every plan touching them, and running jobs can lose a task
// mid-execution. A failed running job escalates through
//
//	retry (same domain, exponential backoff, ≤ MaxRetries)
//	→ fallback (remaining supporting levels)
//	→ cross-domain reallocation
//	→ rejection (QoS miss).
//
// With a zero fault config none of these paths is armed and a run is
// byte-identical to the fault-free simulator.
package metasched

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/faults"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// Config tunes the virtual organization simulation.
type Config struct {
	// ExternalMeanGap is the mean model-time gap between background-load
	// reservation attempts (exponential). Zero disables the injector.
	ExternalMeanGap float64
	// ExternalLead is how far in the future an external window starts.
	ExternalLead simtime.Time
	// ExternalDurLo/Hi bound the external window length (uniform).
	ExternalDurLo, ExternalDurHi simtime.Time
	// ExternalUntil stops the injector at this model time.
	ExternalUntil simtime.Time

	// Objective is the DP target for all strategy generation.
	Objective criticalworks.Objective

	// DomainFilter, when set, lets an outer control layer veto placement
	// domains — the service layer points it at a per-domain circuit
	// breaker so a domain whose strategies repeatedly die stops receiving
	// work. Returning false excludes the domain from flow distribution and
	// reallocation exactly like a fully-down domain. nil admits every
	// domain (the simulation default).
	DomainFilter func(domain string) bool

	// BuildCtx, when set, supplies the context bounding one strategy build
	// done on the job's behalf (an initial build, a retry, one fallback
	// level's re-anchoring) and the cancel the VO calls when that build
	// returns. A cancelled context makes the in-progress build abort at its
	// next checkpoint and the job fail its current recovery step. nil means
	// unbounded builds — the simulation default, byte-identical to runs
	// before the hook existed.
	BuildCtx func(jobName string) (context.Context, context.CancelFunc)

	// Tracer, when set, receives every VO lifecycle event.
	Tracer Tracer

	// Telemetry, when non-nil, receives runtime metrics from the whole
	// hierarchy: the grid_metasched_events_total counter here,
	// grid_strategy_* and grid_criticalworks_* from the layers
	// below (the registry is forwarded to every domain's generator).
	// Telemetry only observes — a run with it enabled is byte-identical
	// to one without, and nil costs the simulation path nothing.
	Telemetry *telemetry.Registry
	// Spans, when non-nil, traces the scheduling work: metasched.adopt
	// and metasched.fallback spans with the strategy/critical-works
	// build spans beneath them. nil disables tracing: the same statements
	// run, and allocate nothing.
	Spans *telemetry.Tracer

	// Seed drives the injector's randomness.
	Seed uint64

	// Faults configures deterministic fault injection (node/domain
	// outages and mid-run task failures). The zero value disables it
	// entirely and reproduces the fault-free simulator exactly.
	Faults faults.Config

	// Placers is the arrival batch width (DESIGN.md §12): above 1,
	// same-tick arrivals form one batch, placed one member after another in
	// the arbiter's order (priority, then submission), each member on the
	// books as its predecessors left them; the service dequeues up to
	// Placers jobs per batch. Values ≤ 1 are the same code with every
	// submission its own singleton batch, so jobs place one at a time in
	// submission order. Inside the VO every value > 1 forms the same
	// batches; ≤ 1 and > 1 batch differently and agree on every job's fate
	// (pinned by the differential suite).
	Placers int
}

// State is a job's lifecycle phase.
type State int

// Job lifecycle states.
const (
	StatePlanned State = iota
	StateExecuting
	StateCompleted
	StateRejected
)

// String names the state.
func (s State) String() string {
	switch s {
	case StatePlanned:
		return "planned"
	case StateExecuting:
		return "executing"
	case StateCompleted:
		return "completed"
	case StateRejected:
		return "rejected"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// JobResult is the full record of one job's passage through the VO.
type JobResult struct {
	Job *dag.Job
	// Scheduled is the DAG the placements refer to: the job itself, or
	// its coarse clustering for S3 strategies.
	Scheduled *dag.Job
	Type      strategy.Type
	Domain    string
	State     State

	Arrival simtime.Time
	Finish  simtime.Time

	// Cost is the cost function CF of the finally executed distribution.
	Cost float64

	// MeanTaskTime is the average reserved task duration of the final
	// distribution (Fig. 4b's task execution time).
	MeanTaskTime float64

	// TTLs holds each activated plan's time-to-live: eviction−activation
	// for invalidated plans, completion−activation for the survivor.
	TTLs []simtime.Time

	// PlannedStart is the job's first-task start under the FIRST activated
	// plan; ActualStart is the start it finally got. Their difference over
	// the run time is Fig. 4c's start deviation ratio.
	PlannedStart, ActualStart simtime.Time

	// Fallbacks counts in-domain re-anchored levels; Reallocations counts
	// metascheduler-level domain moves.
	Fallbacks, Reallocations int

	// TaskFailures counts mid-run failures (task deaths and node crashes
	// under a running job); Retries counts the backoff-delayed recovery
	// attempts they triggered. Zero without fault injection.
	TaskFailures, Retries int
	// Downtime is the model time the job spent failed: from each failure
	// to its next successful activation (or terminal rejection).
	Downtime simtime.Time

	// Placements of the finally executed distribution, by Scheduled's TaskID.
	Placements []criticalworks.Placement
}

// RunTime returns the executed span (finish − actual start), or 0.
func (r *JobResult) RunTime() simtime.Time {
	if r.State != StateCompleted {
		return 0
	}
	return r.Finish - r.ActualStart
}

// StartDeviation returns actual−planned first start (≥ 0 in this model:
// replans only ever push a job later).
func (r *JobResult) StartDeviation() simtime.Time {
	d := r.ActualStart - r.PlannedStart
	if d < 0 {
		return -d
	}
	return d
}

// activeJob is the manager-side state of a job in flight.
type activeJob struct {
	result        *JobResult
	strat         *strategy.Strategy
	manager       *JobManager
	used          strategy.Levels // levels activated since the strategy was installed
	current       *strategy.Distribution
	activate      simtime.Time // when the current plan was activated
	everActivated bool
	finishEv      sim.Handle
	startEv       sim.Handle
	failEv        sim.Handle
	triedDom      []bool       // by JobManager.idx: domains the job was placed in
	retries       int          // recovery attempts consumed
	failedAt      simtime.Time // last unrecovered failure time, -1 if none
}

// JobManager owns one domain's nodes and keeps its jobs' strategies alive.
type JobManager struct {
	vo     *VO
	idx    int // in vo.managers
	domain string
	pool   []resource.NodeID
	gen    *strategy.Generator
}

// VO is the virtual organization: environment, metascheduler, domain
// managers and the background-load injector.
type VO struct {
	engine   *sim.Engine
	env      *resource.Environment
	cfg      Config
	managers []*JobManager
	active   map[string]*activeJob // by job name
	results  []*JobResult
	extRng   *rng.Source
	extOn    bool

	// books is the view every build of this VO plans on: each node mapped to
	// its live calendar itself, no copy, filled once by NewVO (a node keeps
	// its book for life). That is sound because the engine goroutine is the
	// books' only reader and writer: a build only reads its view (the
	// criticalworks.Build contract), and the engine goroutine runs every
	// build to its end before it writes a book.
	books criticalworks.Calendars

	submitted map[string]bool // job names ever submitted, for duplicate detection
	closed    bool            // Close called; no further submissions

	pending  map[simtime.Time][]pendingArrival // same-tick batches still open, placers > 1 only
	batchSeq int                               // submission order across batches

	// placerCommits counts the levels arriving batch members booked; nil
	// (and Inc a no-op) unless telemetry is enabled with Placers > 1.
	placerCommits *telemetry.Counter

	failRng   *rng.Source // mid-run task-failure draws, nil when disabled
	jitterRng *rng.Source // retry-backoff jitter draws, nil when disabled

	// nodeOutages and domainOutages count the outage windows that began:
	// the part of FaultStats no job records.
	nodeOutages, domainOutages int

	voided []resource.Reservation // outageDown's buffer: one crashed node's book at a time
}

// NewVO builds the hierarchy over env: one job manager per distinct node
// domain label.
func NewVO(engine *sim.Engine, env *resource.Environment, cfg Config) *VO {
	vo := &VO{
		engine:    engine,
		env:       env,
		cfg:       cfg,
		active:    make(map[string]*activeJob),
		books:     make(criticalworks.Calendars, env.NumNodes()),
		submitted: make(map[string]bool),
		pending:   make(map[simtime.Time][]pendingArrival),
		extRng:    rng.New(cfg.Seed).Split(0xE7),
	}
	for _, n := range env.Nodes() {
		vo.books[n.ID] = n.Calendar()
	}
	if cfg.Placers > 1 {
		vo.placerCommits = cfg.Telemetry.Counter("grid_placer_commits_total",
			"levels arriving same-tick batch members booked")
	}
	if cfg.Faults.JitterFrac > 0 {
		vo.jitterRng = rng.New(cfg.Faults.Seed).Split(0x717E)
	}
	for _, dom := range env.Domains() {
		var pool []resource.NodeID
		for _, n := range env.ByDomain(dom) {
			pool = append(pool, n.ID)
		}
		m := &JobManager{
			vo:     vo,
			idx:    len(vo.managers),
			domain: dom,
			pool:   pool,
			gen: &strategy.Generator{
				Env:       env,
				Pool:      pool,
				Objective: cfg.Objective,
				Telemetry: cfg.Telemetry,
				Spans:     cfg.Spans,
			},
		}
		vo.managers = append(vo.managers, m)
	}
	if cfg.ExternalMeanGap > 0 {
		vo.extOn = true
		vo.scheduleNextExternal()
	}
	if cfg.Faults.TaskFailRate > 0 {
		vo.failRng = rng.New(cfg.Faults.Seed).Split(0xF417)
	}
	for _, o := range faults.Schedule(cfg.Faults, env) {
		o := o
		vo.engine.At(o.Interval.Start, "node-down", func() { vo.outageDown(o) })
		vo.engine.At(o.Interval.End, "node-up", func() { vo.outageUp(o) })
	}
	return vo
}

// FaultStats is one run's fault-injection record: how often the
// environment broke and how the two scheduling levels recovered. A run
// without fault injection reads all zeros.
type FaultStats struct {
	// NodeOutages and DomainOutages count outage windows that began.
	NodeOutages   int
	DomainOutages int
	// TaskFailures counts mid-run task deaths (including those caused by
	// a node going down under a running job).
	TaskFailures int
	// Retries counts backoff-delayed in-domain recovery attempts.
	Retries int
	// Recoveries counts jobs that completed despite at least one failure.
	Recoveries int
	// Downtime sums the per-job downtime of the DowntimeJobs finished jobs
	// that saw at least one failure: model time between a failure and the
	// next successful (re)activation.
	Downtime     float64
	DowntimeJobs int
}

// String renders the counters on one line for reports and logs.
func (f FaultStats) String() string {
	mean := 0.0
	if f.DowntimeJobs > 0 {
		mean = f.Downtime / float64(f.DowntimeJobs)
	}
	return fmt.Sprintf("outages=%d(domain=%d) task-failures=%d retries=%d recoveries=%d mean-downtime=%.1f",
		f.NodeOutages, f.DomainOutages, f.TaskFailures, f.Retries, f.Recoveries, mean)
}

// FaultStats returns the run's fault-injection record. Everything but the
// outage counts is read off the finished jobs' results, in finalize order.
func (vo *VO) FaultStats() FaultStats {
	f := FaultStats{NodeOutages: vo.nodeOutages, DomainOutages: vo.domainOutages}
	for _, r := range vo.results {
		f.TaskFailures += r.TaskFailures
		f.Retries += r.Retries
		if r.TaskFailures == 0 {
			continue
		}
		if r.State == StateCompleted {
			f.Recoveries++
		}
		f.Downtime += float64(r.Downtime)
		f.DowntimeJobs++
	}
	return f
}

// Results returns all finished (completed or rejected) job records.
func (vo *VO) Results() []*JobResult { return vo.results }

// Submit schedules a job of the given strategy family for arrival at `at`.
// It rejects — with an error, before any engine state changes — duplicate
// job names (a second submission would corrupt the active-job registry,
// which is keyed by name), arrivals scheduled in the engine's past, and
// submissions after Close: all three used to corrupt state silently or
// panic deep inside the engine.
func (vo *VO) Submit(job *dag.Job, typ strategy.Type, at simtime.Time) error {
	return vo.SubmitPrio(job, typ, at, 0)
}

// SubmitPrio is Submit with an explicit priority for the placement
// arbiter: when batched placement is enabled (Config.Placers > 1) and
// several jobs arrive at the same tick, the higher priority plans first in
// its domain (ties by submission order) and a later job plans on the books
// with those windows already taken, per the paper's priority/QoS
// collision-resolution rules. With placers ≤ 1 the priority is irrelevant —
// every batch is a singleton, so jobs place one at a time in submission
// order.
func (vo *VO) SubmitPrio(job *dag.Job, typ strategy.Type, at simtime.Time, prio int) error {
	if vo.closed {
		return fmt.Errorf("metasched: job %q submitted after the VO was closed", job.Name)
	}
	if vo.submitted[job.Name] {
		return fmt.Errorf("metasched: duplicate job %q already submitted", job.Name)
	}
	if at < vo.engine.Now() {
		return fmt.Errorf("metasched: job %q arrival %d is in the past (now %d)", job.Name, at, vo.engine.Now())
	}
	vo.submitted[job.Name] = true
	p := pendingArrival{job: job, typ: typ, prio: prio, seq: vo.batchSeq}
	vo.batchSeq++
	if vo.cfg.Placers <= 1 {
		// Width 1: a batch of one with its own engine event, so events
		// already queued for this tick (external load, outages, other
		// arrivals) interleave with the arrivals in submission order.
		vo.engine.At(at, "arrive", func() { vo.arriveBatch([]pendingArrival{p}) })
		return nil
	}
	if len(vo.pending[at]) == 0 {
		vo.engine.At(at, "arrive-batch", func() {
			batch := vo.pending[at]
			delete(vo.pending, at)
			vo.arriveBatch(batch)
		})
	}
	vo.pending[at] = append(vo.pending[at], p)
	return nil
}

// Close marks the VO finished: every later Submit fails with an error.
// The engine and results remain readable; closing is idempotent. The
// service layer closes the VO when a drain completes so that a straggling
// submission cannot revive a drained engine.
func (vo *VO) Close() {
	vo.closed = true
}

// domainAllowed consults the configured DomainFilter; nil admits all.
func (vo *VO) domainAllowed(domain string) bool {
	return vo.cfg.DomainFilter == nil || vo.cfg.DomainFilter(domain)
}

// excluded reports whether placement may not pick this domain: set in
// except (by idx; nil excludes none), vetoed by the DomainFilter, or down.
func (m *JobManager) excluded(except []bool) bool {
	return (except != nil && except[m.idx]) || !m.vo.env.DomainUp(m.domain) || !m.vo.domainAllowed(m.domain)
}

// buildCtx returns the context bounding one build of the job, or
// Background, and the cancel to call when that build returns.
func (vo *VO) buildCtx(jobName string) (context.Context, context.CancelFunc) {
	if vo.cfg.BuildCtx == nil {
		return context.Background(), func() {}
	}
	return vo.cfg.BuildCtx(jobName)
}

// adopt places the job in this domain inside one engine event: plan on the
// live books, then the engine-side half. It is how a job enters a domain on
// the recovery paths (reallocation, retry), which take their own view of the
// books; an arriving batch shares one (placeBatch).
func (m *JobManager) adopt(aj *activeJob) {
	vo := m.vo
	ctx, cancel := vo.buildCtx(aj.result.Job.Name)
	d, err := m.plan(ctx, aj, vo.books, vo.engine.Now(), false)
	cancel()
	if d == nil {
		vo.unplaced(aj, err)
		return
	}
	m.launch(aj, d)
}

// plan is the calendar half of placing aj in this domain: it generates (or
// regenerates) the job's strategy on books, installs it and reserves the
// cheapest admissible distribution's windows, returning that distribution —
// nil when no level is admissible. initial marks the very first generation
// on the adopt span. It reads and writes aj and
// this domain's books only; the caller follows it with launch, or unplaced.
func (m *JobManager) plan(ctx context.Context, aj *activeJob, books criticalworks.Calendars, now simtime.Time, initial bool) (*strategy.Distribution, error) {
	vo := m.vo
	sp := vo.cfg.Spans.Start("metasched.adopt", telemetry.SpanFromContext(ctx))
	sp.SetStr("job", aj.result.Job.Name).SetStr("domain", m.domain)
	if initial {
		sp.SetInt("initial", 1)
	}
	st, err := m.generate(telemetry.ContextWithSpan(ctx, sp.ID()), aj, books, now)
	if err != nil {
		sp.SetStr("result", "error").End()
		return nil, err
	}
	sp.SetStr("result", "ok").End()
	aj.install(st)
	d := st.CheapestAdmissible()
	if d != nil && !m.reserve(aj, d) {
		// The plan was built on these books by their only writer.
		panic(fmt.Sprintf("metasched: activation conflict for %s at level %d", aj.result.Job.Name, d.Level))
	}
	return d, nil
}

// unplaced sends a job whose plan found no admissible level back to the
// metascheduler. Structural generation failures cannot happen for
// generator-produced jobs; they are rejected rather than crash the
// simulation.
func (vo *VO) unplaced(aj *activeJob, err error) {
	if err != nil {
		vo.finalize(aj, StateRejected)
		return
	}
	vo.reallocate(aj)
}

// generate builds aj's strategy in this domain on books. Whatever sent the
// job round again — a retry, a reallocation — its graph has not changed, so
// a job that already has a strategy keeps what that one derived from the
// graph alone (strategy.Generator.RegenerateCtx). It reads aj and writes
// nothing.
func (m *JobManager) generate(ctx context.Context, aj *activeJob, books criticalworks.Calendars, now simtime.Time) (*strategy.Strategy, error) {
	if aj.strat != nil {
		return m.gen.RegenerateCtx(ctx, aj.strat, books, now)
	}
	return m.gen.GenerateCtx(ctx, aj.result.Job, aj.result.Type, books, now)
}

// install makes st the job's current strategy, no level of it yet used.
func (aj *activeJob) install(st *strategy.Strategy) {
	aj.strat = st
	aj.result.Scheduled = st.Scheduled
	aj.used = strategy.Levels{}
}

// activate is reserve and launch back to back, for a plan built and booked
// inside one engine event (fallback).
func (m *JobManager) activate(aj *activeJob, d *strategy.Distribution) bool {
	if !m.reserve(aj, d) {
		return false
	}
	m.launch(aj, d)
	return true
}

// reserve is the only way a plan reaches the live calendars: the paper's
// all-or-nothing advance reservation of every window at resource-request
// time (§3, §5). Pass 1 asks each placement's node whether its window is
// still free and returns false, having changed nothing, on the first one
// that is not. Pass 2 reserves every window. The two passes are atomic
// because the engine goroutine is the books' only writer (DESIGN.md §12),
// so a Reserve refusing a window pass 1 just found free is an internal bug.
// It writes calendars and nothing else.
func (m *JobManager) reserve(aj *activeJob, d *strategy.Distribution) bool {
	env := m.vo.env
	for _, p := range d.Placements {
		if _, busy := env.Node(p.Node).Calendar().ConflictWith(p.Window); busy {
			return false
		}
	}
	for _, p := range d.Placements {
		owner := resource.Owner{Job: aj.result.Job.Name, Task: aj.strat.Scheduled.Task(p.Task).Name}
		if err := env.Node(p.Node).Calendar().Reserve(p.Window, owner); err != nil {
			panic(fmt.Sprintf("metasched: activation conflict for %s: %v", aj.result.Job.Name, err))
		}
	}
	return true
}

// launch is the engine-side half of an activation, for a distribution whose
// windows reserve just booked: the job's bookkeeping, the activate record,
// its start and finish events and the task-failure draw. Engine goroutine
// only.
//
// The very first activation (in whichever domain it happens) defines the
// job's planned start for the Fig. 4c deviation metric.
func (m *JobManager) launch(aj *activeJob, d *strategy.Distribution) {
	now := m.vo.engine.Now()
	aj.current = d
	aj.activate = now
	aj.used[d.Level] = true
	if !aj.everActivated {
		aj.everActivated = true
		aj.result.PlannedStart = d.Start
	}
	if aj.failedAt >= 0 {
		// The job was down since its last failure; this activation ends
		// the outage-induced wait.
		aj.result.Downtime += now - aj.failedAt
		aj.failedAt = -1
	}
	aj.result.ActualStart = d.Start
	m.vo.trace(Event{Kind: EventActivate, Job: aj.result.Job.Name, Domain: m.domain,
		Level: int(d.Level), Start: d.Start, End: d.Finish})
	aj.startEv = m.vo.engine.At(d.Start, "start", func() {
		aj.result.State = StateExecuting
		m.vo.trace(Event{Kind: EventStart, Job: aj.result.Job.Name, Domain: m.domain})
	})
	aj.finishEv = m.vo.engine.At(d.Finish, "finish", func() {
		m.complete(aj)
	})
	m.armTaskFailure(aj, d)
	aj.result.State = StatePlanned
	if d.Start <= now {
		aj.result.State = StateExecuting
	}
}

// armTaskFailure draws, at activation time, whether this plan will lose a
// task mid-run and schedules the failure if so. Drawing here keeps the
// failure stream a deterministic function of the activation sequence.
func (m *JobManager) armTaskFailure(aj *activeJob, d *strategy.Distribution) {
	vo := m.vo
	if vo.failRng == nil {
		return
	}
	span := d.Finish - d.Start
	if span < 2 || !vo.failRng.Bool(vo.cfg.Faults.TaskFailRate) {
		return
	}
	// The task dies strictly inside the execution window, after the start
	// event of its tick (start events precede failure events in the queue).
	at := d.Start + 1 + vo.failRng.Int64n(int64(span-1))
	aj.failEv = vo.engine.At(at, "task-fail", func() {
		m.taskFailed(aj, "task died mid-run")
	})
}

// complete finalizes a job that ran to plan.
func (m *JobManager) complete(aj *activeJob) {
	d := aj.current
	aj.result.Finish = d.Finish
	aj.result.Cost = float64(d.Cost)
	aj.result.TTLs = append(aj.result.TTLs, d.Finish-aj.activate)
	aj.result.Placements = d.Placements
	var total simtime.Time
	for _, p := range d.Placements {
		total += p.Window.Len()
	}
	aj.result.MeanTaskTime = 0
	if len(d.Placements) > 0 {
		aj.result.MeanTaskTime = float64(total) / float64(len(d.Placements))
	}
	m.vo.finalize(aj, StateCompleted)
}

// release removes the job's current plan from the calendars, cancels its
// pending events and records the plan's time-to-live. The caller decides
// what happens next (fallback, retry, rejection).
func (m *JobManager) release(aj *activeJob) {
	now := m.vo.engine.Now()
	aj.result.TTLs = append(aj.result.TTLs, now-aj.activate)
	aj.startEv.Cancel()
	aj.finishEv.Cancel()
	aj.failEv.Cancel()
	for _, id := range m.pool {
		m.vo.env.Node(id).Calendar().ReleaseJob(aj.result.Job.Name)
	}
	aj.current = nil
	aj.result.State = StatePlanned
}

// teardown is an eviction: the plan of a not-yet-started job is removed
// because the environment claimed one of its windows.
func (m *JobManager) teardown(aj *activeJob) {
	m.vo.trace(Event{Kind: EventEvict, Job: aj.result.Job.Name, Domain: m.domain})
	m.release(aj)
}

// taskFailed handles a running job losing a task (mid-run failure or a
// node crashing under it): the broken plan is released and the job enters
// the recovery ladder — bounded retry with exponential backoff re-anchoring
// the strategy in the same domain, then the remaining supporting levels,
// then cross-domain reallocation, then rejection.
func (m *JobManager) taskFailed(aj *activeJob, detail string) {
	vo := m.vo
	now := vo.engine.Now()
	aj.result.TaskFailures++
	vo.trace(Event{Kind: EventTaskFailed, Job: aj.result.Job.Name, Domain: m.domain, Detail: detail})
	m.release(aj)
	aj.failedAt = now
	if aj.retries < vo.cfg.Faults.MaxRetries {
		aj.retries++
		aj.result.Retries++
		at := now + vo.cfg.Faults.JitteredBackoff(aj.retries, vo.jitterRng)
		vo.trace(Event{Kind: EventRetry, Job: aj.result.Job.Name, Domain: m.domain, Level: aj.retries, Start: at})
		vo.engine.At(at, "retry", func() {
			m.adopt(aj)
		})
		return
	}
	m.fallback(aj)
}

// fallback re-anchors the next supporting level at the current time — one
// critical-works build against the live books per level tried; when the
// strategy is exhausted the job goes back to the metascheduler.
func (m *JobManager) fallback(aj *activeJob) {
	vo := m.vo
	now := vo.engine.Now()
	tried := 0
	sp := vo.cfg.Spans.Start("metasched.fallback", 0)
	sp.SetStr("job", aj.result.Job.Name).SetStr("domain", m.domain)
	defer func() { sp.SetInt("levels_tried", int64(tried)).End() }()
	// Try remaining levels in the cost order of the original generation.
	for {
		next := aj.strat.AdmissibleAfter(aj.used)
		if next == nil {
			vo.reallocate(aj)
			return
		}
		aj.used[next.Level] = true
		tried++
		// buildCtx is re-acquired per level: each level is one build, with
		// its own build timeout.
		ctx, cancel := vo.buildCtx(aj.result.Job.Name)
		d, err := m.gen.BuildLevelCtx(telemetry.ContextWithSpan(ctx, sp.ID()), aj.strat.Scheduled, aj.result.Job.Name, aj.result.Type, next.Level, vo.books, now)
		cancel()
		if err != nil || d == nil || !d.Admissible {
			continue
		}
		aj.result.Fallbacks++
		m.vo.trace(Event{Kind: EventFallback, Job: aj.result.Job.Name, Domain: m.domain, Level: int(d.Level)})
		if !m.activate(aj, d) {
			// Re-anchored on these books a moment ago, inside this event.
			panic(fmt.Sprintf("metasched: activation conflict for %s at re-anchored level %d", aj.result.Job.Name, d.Level))
		}
		return
	}
}

// reallocate moves the job to another domain (Fig. 1's job reallocation);
// with no domains left, the job is rejected.
func (vo *VO) reallocate(aj *activeJob) {
	next := vo.leastLoadedWith(aj.triedDom, nil)
	if next == nil {
		vo.finalize(aj, StateRejected)
		return
	}
	aj.triedDom[next.idx] = true
	aj.result.Reallocations++
	aj.result.Domain = next.domain
	aj.manager = next
	vo.trace(Event{Kind: EventReallocate, Job: aj.result.Job.Name, Domain: next.domain})
	next.adopt(aj)
}

// finalize records the job's terminal state.
func (vo *VO) finalize(aj *activeJob, st State) {
	aj.result.State = st
	kind := EventComplete
	if st == StateRejected {
		aj.result.Finish = vo.engine.Now()
		kind = EventReject
	}
	if aj.failedAt >= 0 {
		aj.result.Downtime += vo.engine.Now() - aj.failedAt
		aj.failedAt = -1
	}
	vo.trace(Event{Kind: kind, Job: aj.result.Job.Name, Domain: aj.result.Domain})
	delete(vo.active, aj.result.Job.Name)
	vo.results = append(vo.results, aj.result)
	// Keep the calendars lean on long runs: finished reservations cannot
	// affect any future fit.
	if len(vo.results)%64 == 0 {
		now := vo.engine.Now()
		for _, n := range vo.env.Nodes() {
			n.Calendar().PruneBefore(now)
		}
	}
}

// outageDown applies one fault-schedule outage: every affected node is
// marked down and its reservation book voided FIRST (so recovery never
// replans onto a sibling node dying in the same event), then the evicted
// jobs recover in deterministic name order. Running jobs whose unfinished
// windows were voided go through the task-failure ladder; waiting jobs
// through the ordinary eviction/fallback path.
func (vo *VO) outageDown(o faults.Outage) {
	now := vo.engine.Now()
	ids := []resource.NodeID{o.Node}
	if o.Domain != "" {
		ids = ids[:0]
		for _, n := range vo.env.ByDomain(o.Domain) {
			ids = append(ids, n.ID)
		}
	}
	vo.nodeOutages++
	if o.Domain != "" {
		vo.domainOutages++
	}
	vo.trace(Event{Kind: EventNodeDown, Domain: o.Domain, Node: int(o.Node),
		Start: o.Interval.Start, End: o.Interval.End})
	victims := make(map[string]*activeJob)
	for _, id := range ids {
		n := vo.env.Node(id)
		n.MarkDown(now)
		vo.voided = n.Calendar().Void(vo.voided[:0])
		for _, r := range vo.voided {
			if r.Owner == resource.External {
				continue
			}
			// A window that already finished did its work before the
			// crash; only unfinished windows break the owning job.
			if r.Interval.End <= now {
				continue
			}
			if aj, ok := vo.active[r.Owner.Job]; ok && aj.current != nil {
				victims[r.Owner.Job] = aj
			}
		}
	}
	names := make([]string, 0, len(victims))
	for name := range victims {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		aj := victims[name]
		if aj.result.State == StateExecuting {
			aj.manager.taskFailed(aj, "node down under running task")
			continue
		}
		aj.manager.teardown(aj)
		aj.manager.fallback(aj)
	}
}

// outageUp ends one outage window.
func (vo *VO) outageUp(o faults.Outage) {
	now := vo.engine.Now()
	ids := []resource.NodeID{o.Node}
	if o.Domain != "" {
		ids = ids[:0]
		for _, n := range vo.env.ByDomain(o.Domain) {
			ids = append(ids, n.ID)
		}
	}
	for _, id := range ids {
		vo.env.Node(id).MarkUp(now)
	}
	vo.trace(Event{Kind: EventNodeUp, Domain: o.Domain, Node: int(o.Node)})
}

// scheduleNextExternal arms the background-load injector.
func (vo *VO) scheduleNextExternal() {
	gap := simtime.Time(vo.extRng.Exp(vo.cfg.ExternalMeanGap)) + 1
	at := vo.engine.Now() + gap
	if vo.cfg.ExternalUntil > 0 && at > vo.cfg.ExternalUntil {
		return
	}
	vo.engine.At(at, "external-load", func() {
		vo.injectExternal()
		vo.scheduleNextExternal()
	})
}

// injectExternal books one random background job: a random node, the
// earliest window after the lead time that the local system can grant.
func (vo *VO) injectExternal() {
	now := vo.engine.Now()
	n := resource.NodeID(vo.extRng.Intn(vo.env.NumNodes()))
	dur := simtime.Time(vo.extRng.Int64Between(int64(vo.cfg.ExternalDurLo), int64(vo.cfg.ExternalDurHi)))
	if dur <= 0 {
		return
	}
	vo.InjectExternalLoad(n, dur, now+vo.cfg.ExternalLead)
}

// InjectExternalLoad models an independent local batch job arriving at a
// node: the local system places it at the earliest window at or after
// `earliest` that avoids guaranteed reservations (running/started grid
// jobs, other locals), and — exercising the local system's autonomy — it
// outranks grid reservations whose jobs have not started yet: those plans
// are evicted and replan. It returns the booked window.
func (vo *VO) InjectExternalLoad(node resource.NodeID, dur, earliest simtime.Time) (simtime.Interval, bool) {
	if dur <= 0 {
		return simtime.Interval{}, false
	}
	if !vo.env.Node(node).Up() {
		// The node's local batch system is down; the arrival is lost.
		return simtime.Interval{}, false
	}
	cal := vo.env.Node(node).Calendar()
	start := earliest
	for iter := 0; iter < 10000; iter++ {
		iv := simtime.Interval{Start: start, End: start + dur}
		blocked := simtime.Time(-1)
		for _, c := range cal.ConflictsWith(iv) {
			if vo.isProtected(c.Owner) && c.Interval.End > blocked {
				blocked = c.Interval.End
			}
		}
		if blocked >= 0 {
			start = blocked
			continue
		}
		if vo.InjectExternal(node, iv) {
			return iv, true
		}
		return simtime.Interval{}, false
	}
	return simtime.Interval{}, false
}

// isProtected reports whether a reservation owner cannot be preempted by
// local load: externals and grid jobs that already started.
func (vo *VO) isProtected(owner resource.Owner) bool {
	if owner == resource.External {
		return true
	}
	aj, ok := vo.active[owner.Job]
	return !ok || aj.result.State != StatePlanned
}

// InjectExternal attempts one background reservation on the given node and
// window, applying the eviction rules: plans of jobs that have not started
// yet yield to it (and get evicted); executing jobs and other externals
// win, and the event is dropped. It reports whether the reservation was
// booked. Exposed for deterministic scenario construction.
func (vo *VO) InjectExternal(node resource.NodeID, iv simtime.Interval) bool {
	n := vo.env.Node(node)
	// A view of the book: read to its end before the teardowns below move it.
	conflicts := n.Calendar().ConflictsWith(iv)
	var victims []*activeJob
	for _, c := range conflicts {
		if c.Owner == resource.External {
			return false // externals do not fight each other
		}
		aj, ok := vo.active[c.Owner.Job]
		if !ok || aj.result.State != StatePlanned {
			return false // executing (or unknown) jobs are protected
		}
		victims = append(victims, aj)
	}
	// Deduplicate victims while keeping deterministic order.
	sort.Slice(victims, func(a, b int) bool {
		return victims[a].result.Job.Name < victims[b].result.Job.Name
	})
	seen := map[*activeJob]bool{}
	var evictees []*activeJob
	for _, v := range victims {
		if !seen[v] {
			seen[v] = true
			evictees = append(evictees, v)
		}
	}
	// Tear every victim down first so the external's booking cannot fail,
	// then let the victims replan against the post-event state.
	for _, v := range evictees {
		v.manager.teardown(v)
	}
	if err := n.Calendar().Reserve(iv, resource.External); err != nil {
		panic(fmt.Sprintf("metasched: external booking failed after eviction: %v", err))
	}
	vo.trace(Event{Kind: EventExternal, Node: int(node), Start: iv.Start, End: iv.End})
	for _, v := range evictees {
		v.manager.fallback(v)
	}
	return true
}

// NodeLoad aggregates, per performance group, the fraction of the span
// each group's nodes spent executing completed jobs' tasks (Fig. 4a).
// External load is excluded: the figure reports the strategies' own usage
// pattern.
func (vo *VO) NodeLoad(span simtime.Interval) map[resource.Group]float64 {
	busy := make(map[resource.NodeID]simtime.Time)
	for _, r := range vo.results {
		if r.State != StateCompleted {
			continue
		}
		for _, p := range r.Placements {
			busy[p.Node] += p.Window.Intersect(span).Len()
		}
	}
	groupBusy := make(map[resource.Group]simtime.Time)
	groupCap := make(map[resource.Group]simtime.Time)
	for _, n := range vo.env.Nodes() {
		groupBusy[n.Group()] += busy[n.ID]
		groupCap[n.Group()] += span.Len()
	}
	out := make(map[resource.Group]float64)
	for g, c := range groupCap {
		if c > 0 {
			out[g] = float64(groupBusy[g]) / float64(c)
		}
	}
	return out
}
