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
	result   *JobResult
	strat    *strategy.Strategy
	manager  *JobManager
	used     strategy.Levels // levels activated since the strategy was installed
	current  *strategy.Distribution
	activate simtime.Time // when the current plan was activated
	finishEv sim.Handle
	startEv  sim.Handle
	failEv   sim.Handle
	triedDom []bool       // by JobManager.idx: domains the job was placed in
	failedAt simtime.Time // last unrecovered failure time, -1 if none
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

	// books is the view every build of this VO plans on: each node's live
	// calendar itself at the node's ID, no copy, filled once by NewVO (a
	// node keeps its book for life). That is sound because the engine goroutine is the
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
