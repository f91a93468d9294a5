// Package criticalworks implements the paper's core application-level
// scheduling algorithm: the critical works method (§3, refs [21–23]).
//
// The method is a multiphase procedure over a compound job's DAG:
//
//  1. Find the next critical work — the longest (by best-case estimated
//     execution time, data transfers included) chain of still-unassigned
//     tasks.
//  2. Choose the best combination of available resources for that chain by
//     dynamic programming over (chain position × candidate node),
//     minimizing the economic cost Σ ceil(V/T) subject to the job's
//     deadline and the nodes' reservation calendars.
//  3. Detect collisions — the chain's ideal placement landing on node time
//     already reserved by a task of a different critical work (the paper's
//     P4/P5 clash on node 3) — and resolve them by economic reallocation
//     (the DP simply pays for the next-best slot or node).
//  4. Repeat until every task is placed, yielding one Distribution
//     (a Schedule here).
package criticalworks

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Placement is one line of a Distribution: a task bound to a node for a
// wall-time reservation window, at the user-estimated duration.
type Placement struct {
	Task   dag.TaskID
	Node   resource.NodeID
	Window simtime.Interval
}

// Collision records one resource conflict between critical works: the task
// wanted Window on Node (its ideal placement) but the slot was already held
// by Holder. Resolution is whatever placement the task actually received.
type Collision struct {
	Task   dag.TaskID
	Node   resource.NodeID
	Window simtime.Interval
	Holder resource.Owner
}

// Schedule is the paper's Distribution: a complete coordinated allocation
// of all tasks of one job, Placements[id] binding task id. Beside an
// *InfeasibleError, Build returns the partial schedule of an abandoned
// construction: its Placements are nil if no chain was placed, else the dense
// table with the zero Placement (an empty Window, which no placed task has)
// for each task left unplaced, and its Collisions are still meaningful (the
// method attempted them).
type Schedule struct {
	Job        *dag.Job
	Placements []Placement
	Collisions []Collision

	// Cost is the paper's cost function CF = Σ ceil(V/T), as Fig. 2 prints it.
	Cost int64

	// Start and Finish bound the whole job's execution window.
	Start, Finish simtime.Time

	// Evaluations counts slot-fitting probes performed by the DP — the
	// "computational expenses" of generating this distribution that §4
	// contrasts between S1 and MS1. A DP cell probes once at the earliest
	// start that can win it, not once per predecessor: one probe per cell
	// under MinFinish, and under MinCost one more for every cheaper group of
	// predecessors a probe rules out (bestPred). A build counts the attempts
	// it ran: one the admissibility bound refuses counts 0, one the DP cut
	// stops counts the margins before the cut, and one the calendar bound
	// refuses counts margin 1 plus the bound's own probes, which never
	// exceed what the spared attempts would have probed. So the count is at
	// most the full five-margin ladder's.
	Evaluations int64
}

// MeetsDeadline reports whether the schedule completes by the job deadline.
func (s *Schedule) MeetsDeadline() bool { return s.Finish <= s.Job.Deadline }

// Objective selects the DP's optimization target for each critical work.
type Objective int

const (
	// MinFinish minimizes the chain's completion time, breaking ties by
	// economic cost — the QoS-first target used when generating the fast
	// (low-tier) distributions of a strategy.
	MinFinish Objective = iota
	// MinCost minimizes economic cost, breaking ties by completion time —
	// the budget-first target. With loose deadlines it drifts to the
	// slowest feasible nodes, trading promptness for quota.
	MinCost
)

// CollisionMode selects how a blocked ideal placement is resolved; the
// non-default mode exists for the E8 ablation.
type CollisionMode int

const (
	// ResolveReallocate lets the DP move the task to any feasible node and
	// slot (the paper's economic reallocation).
	ResolveReallocate CollisionMode = iota
	// ResolveDelay pins each task to its ideal node and only ever delays it
	// there — the naive baseline the paper's mechanism improves on.
	ResolveDelay
)

// Options configures one Build run.
type Options struct {
	// JobName labels reservations; defaults to the job's own name.
	JobName string
	// Data is the data policy transfers are priced under and, for static
	// storage, the node every product is kept on; the zero value is remote
	// access.
	Data data.Model
	// Candidates restricts the usable nodes; nil means every node.
	Candidates []resource.NodeID
	// Release is the earliest model time any task may start.
	Release simtime.Time
	// Mode selects collision resolution; default ResolveReallocate.
	Mode CollisionMode
	// Objective selects the DP target; default MinFinish.
	Objective Objective
	// Ctx, when non-nil, bounds the build's execution: cancellation is
	// checked before the build starts, at the start of every margin attempt,
	// between critical works and between a chain's ideal and actual DP
	// phases, never inside a DP phase, so a pathological job cannot wedge
	// the worker running it. A cancelled
	// build aborts with an error wrapping ctx.Err() (never an
	// InfeasibleError). nil means no cancellation — byte-identical to
	// builds before the hook existed.
	Ctx context.Context
	// Telemetry, when non-nil, receives the build's runtime metrics
	// (grid_criticalworks_*: outcome counters, evaluation and collision
	// totals, wall-clock latency). Telemetry only observes — results are
	// byte-identical with it on or off — and a nil registry costs the
	// build nothing (zero allocations on the hot path).
	Telemetry *telemetry.Registry
	// Spans, when non-nil, traces the build: one root span per Build,
	// a child per margin attempt, one per critical work, and one per DP
	// phase (ideal/actual). nil disables tracing at zero cost.
	Spans *telemetry.Tracer

	// Set by Build: the job's deadline, the horizon calendar searches stop
	// at (4× the deadline span) and the span the margin attempts hang under.
	deadline, horizon simtime.Time
	parentSpan        telemetry.SpanID
}

// Calendars is a scheduling view: one calendar per node. Build reads a view
// and writes nothing — no reservation, no map entry — so builds may share one
// view, and the view may be the live books themselves as long as nobody
// writes them meanwhile. A view belongs to one goroutine: a query may
// rebuild a book's window index (resource.Calendar).
type Calendars map[resource.NodeID]*resource.Calendar

// Clone deep-copies the view, for code that reserves into it in place.
func (cals Calendars) Clone() Calendars {
	out := make(Calendars, len(cals))
	for id, c := range cals {
		out[id] = c.Clone()
	}
	return out
}

// Snapshot clones the live calendars of every node in env, for a caller
// that keeps the view while the environment moves on. Planning within one
// engine event needs no copy (the Calendars contract).
func Snapshot(env *resource.Environment) Calendars {
	out := make(Calendars, env.NumNodes())
	for _, n := range env.Nodes() {
		out[n.ID] = n.Calendar().Clone()
	}
	return out
}

// SnapshotVersioned is Snapshot plus the generation each live book carried
// when it was copied, so a caller can later tell which books have moved
// since (resource.Calendar.Gen). Production plans on the live books and
// does not call it; the signature and the deep copy stay because
// benchmark/probes.go times this function.
func SnapshotVersioned(env *resource.Environment) (Calendars, map[resource.NodeID]uint64) {
	out := make(Calendars, env.NumNodes())
	gens := make(map[resource.NodeID]uint64, env.NumNodes())
	for _, n := range env.Nodes() {
		cal := n.Calendar()
		out[n.ID] = cal.Clone()
		gens[n.ID] = cal.Gen()
	}
	return out, gens
}

// EmptyCalendars returns fresh calendars for every node in env.
func EmptyCalendars(env *resource.Environment) Calendars {
	out := make(Calendars, env.NumNodes())
	for _, n := range env.Nodes() {
		out[n.ID] = resource.NewCalendar()
	}
	return out
}

// InfeasibleError reports that no resource combination lets the job meet
// its deadline; Task names the first chain task that could not be placed.
// The two flags say how the build knew; neither is part of the error text.
//
// Hopeless: the build was refused before any attempt, reading no calendar —
// the deadline is not after the release, or the admissibility bound (the
// first critical work misses the deadline on its fastest candidates with
// empty calendars).
//
// FirstWork: a proof showed that the first critical work has no placement at
// any margin, so nothing was placed or collided — Hopeless, the calendar
// bound (no candidate has a free gap for some task of it inside the task's
// window) or the DP cut at margin 1 (MinFinish with ResolveReallocate).
// Every such proof is that no candidate will do and reads nothing else that
// depends on the candidate set, so it holds on every subset of the
// candidates: a level sweep refuses its later levels on it (strategy).
// Without FirstWork the ladder ran until its margins, or a later margin's
// DP cut, said no.
//
// Build returns it unwrapped, so a type assertion finds it.
type InfeasibleError struct {
	Job       string
	Task      string
	Hopeless  bool
	FirstWork bool
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("criticalworks: job %q: no feasible placement for task %q", e.Job, e.Task)
}

// ErrNoCandidates reports an empty candidate node set.
var ErrNoCandidates = errors.New("criticalworks: no candidate nodes")

// scratch is a build's working memory: everything a build makes and its
// result does not keep — the bounds, the chain searches, the DP table, the
// attempt's placements with their per-node overlay, its replica sets and the
// collisions it has recorded so far. A build borrows one from scratchPool,
// sizes it for its job and environment, and runs its margin attempts in it
// one after another; what it returns — the Schedule, its Placements and
// its Collisions, copied out at their exact length — is allocated fresh and
// never points here. Build is a function, not a method of a long-lived
// owner, and builds run on several goroutines at once (experiments run jobs
// on parallel workers), so the arena comes from a pool rather than a caller.
type scratch struct {
	job *dag.Job
	adj []dag.Edge // edges of the one task an edge walk is visiting

	bestUp   []simtime.Time // earliest-start offset per task (margin-scaled)
	bestDown []simtime.Time // remaining time after task finish (margin-scaled)

	// The first critical work, found once and placed first by every margin:
	// its own slice, because every later search overwrites chains.
	first  []dag.TaskID
	chains dag.ChainBuf // the next-critical-work search and its result

	dp     []cell      // runDP's table, chain positions × candidates
	cells  []cellIn    // what each dp cell reads of its (task, node) pair
	preds  []pred      // the dp row before the one runDP is filling, sorted
	ins    []link      // the placed inputs of the task prepareCells is on
	outs   []link      // and its placed outputs
	placed []Placement // the attempt's placements by TaskID; zero where none

	// The current critical work's two DP results, overwritten by every chain.
	ideal, actual []Placement

	// The attempt's overlay on the view it reads: its placements node by
	// node, as lists threaded through placed. ownHead[n] is 1 + the task
	// placed last on node n, ownNext[t] 1 + the task placed on t's node
	// before t, 0 ends a list.
	ownHead, ownNext []int32

	// The attempt's replica sets, a row of `words` uint64s per task: bit n of
	// row t says node n holds a copy of task t's output. A build only ever
	// places — and so only ever replicates — data products of its own job,
	// which the producing TaskID names.
	replica []uint64
	words   int

	// colls collects the attempt's collisions; room for all there can be (a
	// task sits in one chain, which records at most one collision for it).
	colls []Collision

	bld builder // the attempt in progress
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// takeScratch borrows an arena for one build of job over nodes nodes.
func takeScratch(job *dag.Job, nodes int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.reset(job, nodes)
	return sc
}

// reset points the arena at job and grows what is too small for it. What the
// slices hold is whatever the last build left: every one is cleared or
// overwritten before it is read (attempt, computeBounds, runDP, reserve);
// the DP's own buffers are grown where they are filled.
func (sc *scratch) reset(job *dag.Job, nodes int) {
	n := job.NumTasks()
	sc.job = job
	sc.bestUp, sc.bestDown = grow(sc.bestUp, n), grow(sc.bestDown, n)
	sc.placed = grow(sc.placed, n)
	sc.ideal, sc.actual = grow(sc.ideal, n), grow(sc.actual, n)
	sc.ownHead, sc.ownNext = grow(sc.ownHead, nodes), grow(sc.ownNext, n)
	sc.words = (nodes + 63) / 64
	sc.replica = grow(sc.replica, n*sc.words)
	sc.colls = grow(sc.colls, n)
}

// release returns the arena holding nothing of the build it served: no job,
// and with the builder no view, options or context — a pooled arena outlives
// the engine event, and a view's calendars must not (liveBooks).
func (sc *scratch) release() {
	sc.job = nil
	sc.bld = builder{}
	clear(sc.adj[:cap(sc.adj)])     // the edges' names
	clear(sc.colls[:cap(sc.colls)]) // the holders' names
	scratchPool.Put(sc)
}

// grow returns s with length n, reallocated when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// builder carries one Build attempt's state. The attempt is a what-if over
// the caller's view: it reads the view's books and writes nothing but its
// own placements, which firstFree, conflictWith and reserve overlay on the
// book they query. A failed attempt is simply dropped.
type builder struct {
	env    *resource.Environment
	base   Calendars // the caller's view; never written, map or calendars
	opt    Options
	margin float64 // serialization margin scaling the bounds

	nPlaced int // tasks placed
	evals   int64

	// span is the enclosing margin attempt's span ID; 0 when tracing is
	// off (per-chain and per-DP-phase spans hang under it).
	span telemetry.SpanID

	*scratch
}

// attempt starts a margin's attempt in the arena: empty overlay, nothing
// placed, no replica anywhere, no collision recorded.
func (sc *scratch) attempt(env *resource.Environment, cals Calendars, opt Options, margin float64) *builder {
	clear(sc.placed)
	clear(sc.ownHead)
	clear(sc.replica)
	sc.colls = sc.colls[:0]
	sc.bld = builder{env: env, base: cals, opt: opt, margin: margin, scratch: sc}
	return &sc.bld
}

// placement returns task id's placement in this attempt, if it has one.
func (b *builder) placement(id dag.TaskID) (Placement, bool) {
	return b.placed[id], !b.placed[id].Window.Empty()
}

// placements copies the attempt's placements out of the arena as a
// Schedule's table by TaskID; nil when nothing is placed.
func (b *builder) placements() []Placement {
	if b.nPlaced == 0 {
		return nil
	}
	out := make([]Placement, len(b.placed))
	copy(out, b.placed)
	return out
}

// ownOverlap returns the attempt's earliest-starting placement on node n
// that overlaps iv. Own placements on a node are pairwise disjoint (reserve
// checks), so that is also the first one a merged book would report. Only
// node n's list is walked: a node the attempt has not reserved on costs one
// load, whatever the job's size.
func (b *builder) ownOverlap(n resource.NodeID, iv simtime.Interval) (first Placement, ok bool) {
	for l := b.ownHead[n]; l != 0; l = b.ownNext[l-1] {
		if p := &b.placed[l-1]; p.Window.Overlaps(iv) && (!ok || p.Window.Start < first.Window.Start) {
			first, ok = *p, true
		}
	}
	return first, ok
}

// firstFree is Calendar.FirstFree on node n's book — base, the view's —
// merged with the attempt's own placements there, without building that
// book: ask base for its first free start t ≥ earliest, and while an own
// placement p overlaps [t, t+length), ask again from p.End.
//
// Why that is the merged book's answer. Every start in [earliest, t) is
// refused by the base book alone (FirstFree returns the minimum). Every
// start s in [t, p.End) overlaps p: s < p.End, and s+length ≥ t+length >
// p.Start because p overlaps [t, t+length). So the merged answer is ≥ p.End
// and the search resumes there; each pass retires one own placement. A t
// that no own placement overlaps is free in both books and, by the above,
// the first such start. The horizon test is the base call's, on a start
// the merged answer cannot precede.
func (b *builder) firstFree(n resource.NodeID, base *resource.Calendar, earliest, length, horizon simtime.Time) (simtime.Time, bool) {
	for {
		t, ok := base.FirstFree(earliest, length, horizon)
		if !ok {
			return 0, false
		}
		p, hit := b.ownOverlap(n, simtime.Interval{Start: t, End: t + length})
		if !hit {
			return t, true
		}
		earliest = p.Window.End
	}
}

// conflictWith is Calendar.ConflictWith on the merged book: the
// earlier-starting of the base book's first overlap with iv and the
// attempt's own, the latter under the owner a real Reserve would carry.
func (b *builder) conflictWith(n resource.NodeID, iv simtime.Interval) (resource.Reservation, bool) {
	res, busy := b.base[n].ConflictWith(iv)
	if p, hit := b.ownOverlap(n, iv); hit && (!busy || p.Window.Start < res.Interval.Start) {
		return resource.Reservation{Interval: p.Window, Owner: b.owner(p.Task)}, true
	}
	return res, busy
}

// owner labels the attempt's reservation for a task.
func (b *builder) owner(task dag.TaskID) resource.Owner {
	return resource.Owner{Job: b.opt.JobName, Task: b.job.Task(task).Name}
}

// reserve books p in the overlay, refusing what Calendar.Reserve would
// refuse on the merged book (either is an internal bug: the DP chose it).
func (b *builder) reserve(p Placement) error {
	if p.Window.Empty() {
		return fmt.Errorf("%w: %v", resource.ErrEmptyInterval, p.Window)
	}
	if existing, busy := b.conflictWith(p.Node, p.Window); busy {
		return &resource.ErrConflict{Wanted: p.Window, Existing: existing}
	}
	b.ownNext[p.Task], b.ownHead[p.Node] = b.ownHead[p.Node], int32(p.Task)+1
	b.placed[p.Task] = p
	b.nPlaced++
	return nil
}

// collisions copies the attempt's collisions out of the arena at their exact
// length; nil when there are none.
func (b *builder) collisions() []Collision {
	if len(b.colls) == 0 {
		return nil
	}
	out := make([]Collision, len(b.colls))
	copy(out, b.colls)
	return out
}

// held reports whether node n holds a replica of producer's output.
func (b *builder) held(producer dag.TaskID, n resource.NodeID) bool {
	return b.replica[int(producer)*b.words+int(n)/64]>>(uint(n)%64)&1 != 0
}

// commit records that producer's output has been materialized at both ends of
// a transfer from → to (data.Catalog.Commit's rule).
func (b *builder) commit(producer dag.TaskID, from, to resource.NodeID) {
	row := b.replica[int(producer)*b.words:]
	row[int(from)/64] |= 1 << (uint(from) % 64)
	row[int(to)/64] |= 1 << (uint(to) % 64)
}

// commitPlaced commits the data placement of every edge whose two ends are
// placed, so later critical works of this job see the replicas.
func (b *builder) commitPlaced() {
	for i, m := 0, b.job.NumEdges(); i < m; i++ {
		e := b.job.EdgeAt(i)
		from, okF := b.placement(e.From)
		to, okT := b.placement(e.To)
		if okF && okT {
			b.commit(e.From, from.Node, to.Node)
		}
	}
}

// margins is the retry ladder of serialization margins. The pure best-case
// bounds (margin 1) assume unlimited fastest nodes; when parallel branches
// must serialize on a scarce resource pool, later critical works can find
// their window already pinned shut by earlier ones. Each retry inflates
// the room the bounds reserve between dependent tasks, trading schedule
// compactness for feasibility — the multiphase conflict resolution of §3
// at the whole-schedule level.
var margins = []float64{1, 1.5, 2, 3, 4}

// Build runs the critical works method for one job against the given
// calendar view and returns the resulting Distribution. Build reads cals
// and writes nothing — no reservation, no map entry, whatever the outcome —
// so builds may share a view (DESIGN.md §5); the plan is the
// returned Schedule and nothing else is handed back: the replica sets an
// attempt accumulates are its own working state. It allocates only what it
// returns: its working memory is a pooled arena (scratch).
func Build(env *resource.Environment, cals Calendars, job *dag.Job, opt Options) (*Schedule, error) {
	if opt.Telemetry == nil && opt.Spans == nil {
		return build(env, cals, job, opt)
	}
	var start time.Time
	if opt.Telemetry != nil {
		start = time.Now()
	}
	name := opt.JobName
	if name == "" {
		name = job.Name
	}
	var parent telemetry.SpanID
	if opt.Ctx != nil {
		parent = telemetry.SpanFromContext(opt.Ctx)
	}
	root := opt.Spans.Start("criticalworks.build", parent)
	root.SetStr("job", name)
	if root != nil {
		opt.parentSpan = root.ID()
	}
	sched, err := build(env, cals, job, opt)
	var evals, colls int64
	if sched != nil {
		evals = sched.Evaluations
		colls = int64(len(sched.Collisions))
	}
	if opt.Telemetry != nil {
		opt.Telemetry.Counter("grid_criticalworks_builds_total",
			"critical-works builds by outcome", telemetry.L("result", buildResult(err))).Inc()
		opt.Telemetry.Counter("grid_criticalworks_evaluations_total",
			"DP slot-fitting probes performed").Add(uint64(evals))
		opt.Telemetry.Counter("grid_criticalworks_collisions_total",
			"resource collisions between critical works").Add(uint64(colls))
		opt.Telemetry.Histogram("grid_criticalworks_build_seconds",
			"wall-clock latency of one critical-works build", nil).Observe(telemetry.Since(start))
	}
	root.SetStr("result", buildResult(err)).SetInt("evaluations", evals).SetInt("collisions", colls).End()
	return sched, err
}

// buildResult classifies a build's outcome for the telemetry counters.
func buildResult(err error) string {
	inf, _ := err.(*InfeasibleError) // Build returns it unwrapped
	switch {
	case err == nil:
		return "ok"
	case inf != nil && inf.Hopeless:
		return "hopeless"
	case inf != nil:
		return "infeasible"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	default:
		return "error"
	}
}

// normalize applies Build's option defaulting.
func normalize(env *resource.Environment, job *dag.Job, opt Options) (Options, error) {
	if opt.JobName == "" {
		opt.JobName = job.Name
	}
	opt.deadline = job.Deadline
	if opt.deadline <= opt.Release {
		return opt, &InfeasibleError{Job: opt.JobName, Task: job.Task(job.TopoAt(0)).Name, Hopeless: true, FirstWork: true}
	}
	opt.horizon = opt.Release + 4*(opt.deadline-opt.Release)
	if opt.Candidates == nil {
		opt.Candidates = allNodes(env)
	}
	if len(opt.Candidates) == 0 {
		return opt, ErrNoCandidates
	}
	return opt, nil
}

// build is the uninstrumented core of Build: the options' defaults, then the
// run in a borrowed arena.
func build(env *resource.Environment, cals Calendars, job *dag.Job, opt Options) (*Schedule, error) {
	opt, err := normalize(env, job, opt)
	if err != nil {
		return nil, err
	}
	// Before the bound: a build whose context is already done reports that,
	// never infeasibility.
	if err := cancelled(opt.Ctx, opt.JobName); err != nil {
		return nil, err
	}

	sc := takeScratch(job, env.NumNodes())
	defer sc.release()
	return sc.run(env, cals, opt)
}

// run is a build in the arena, which reset has pointed at the job: the
// admissibility bound, then the margin ladder, cut short once a proof shows
// that the margins left fail the way the last one did. opt is normalized. On
// success the arena is left holding the successful attempt.
//
// The DP cut. Under MinFinish the DP is feasibility-exact for the first
// critical work: nothing else is placed yet, no node holds a replica, and a
// cell keeps the least finish that any assignment of the chain prefix ending
// there reaches (bestPred probes at the least earliest start, and fit is
// monotone in it). So a phase fails only when the chain has no assignment to
// candidates and free starts inside its windows: on empty books in the ideal
// phase, on the view in the actual one. The windows only shrink as the
// margin grows (hopeless), so no later margin has one either, and every
// later attempt fails in its first critical work, reserving and recording
// nothing. The ladder's result is margin 1's, whichever margin the cut comes
// at. Under ResolveDelay the actual phase tries only the nodes the ideal
// phase picked, and a later margin may pick others; under MinCost a cell
// keeps its cheapest predecessor, whose later finish can strand the next
// position where a dearer one would not. There a failure proves nothing, and
// the calendar bound (noGap) is asked instead.
//
// The admissibility bound, the calendar bound and a cut at margin 1 prove
// that the first critical work has no placement at any margin; the error
// says so (FirstWork).
func (sc *scratch) run(env *resource.Environment, cals Calendars, opt Options) (*Schedule, error) {
	job := sc.job
	// The first critical work is the longest chain over all tasks by base
	// (tier-1) times and base transfer times — the same at every margin, so
	// it is found once and handed to every attempt.
	first, _ := job.LongestChainBuf(&sc.chains, dag.WeightFunc{}, nil)
	sc.first = append(sc.first[:0], first.Tasks...)
	first.Tasks = sc.first
	sc.computeBounds(1)
	if sc.hopeless(env, opt, first) {
		return &Schedule{Job: job},
			&InfeasibleError{Job: opt.JobName, Task: job.Task(first.Tasks[0]).Name, Hopeless: true, FirstWork: true}
	}

	var firstPartial *Schedule
	var firstErr *InfeasibleError
	var evals int64
	for i, mg := range margins {
		b := sc.attempt(env, cals, opt, mg)
		var asp *telemetry.Span
		if opt.Spans != nil {
			asp = opt.Spans.Start("criticalworks.attempt", opt.parentSpan)
			asp.SetInt("margin_pct", int64(mg*100))
			b.span = asp.ID()
		}
		sched, err := b.buildOnce(first)
		if asp != nil {
			asp.SetStr("result", buildResult(err)).SetInt("evaluations", b.evals).End()
		}
		evals += b.evals
		if err == nil {
			sched.Evaluations = evals
			return sched, nil
		}
		inf, ok := err.(*InfeasibleError)
		if !ok {
			return nil, err
		}
		if firstPartial == nil {
			// Keep the margin-1 attempt's partial schedule: its collisions
			// reflect the method's genuine allocation attempts (Fig. 3b
			// counts them).
			firstPartial, firstErr = b.partial(), inf
		}
		if b.nPlaced > 0 {
			continue // a later critical work failed; a wider margin may place it
		}
		// The first critical work failed: the DP cut, or after margin 1 the
		// calendar bound, may prove that every later margin fails it too.
		if opt.Objective == MinFinish && opt.Mode == ResolveReallocate {
			firstErr.FirstWork = i == 0
			break
		}
		if i == 0 {
			if probes, refused := sc.noGap(env, cals, opt, first); refused {
				evals += probes
				firstErr.FirstWork = true
				break
			}
		}
	}
	firstPartial.Evaluations = evals
	return firstPartial, firstErr
}

// hopeless is the admissibility bound: it reports whether the first
// critical work cannot finish inside the deadline even with every task on
// its fastest candidate, every transfer at the data policy's minimum and
// every calendar empty. It needs the margin-1 bounds in bestUp/bestDown.
//
// Walking the chain forward,
//
//	start_i  = max(Release + bestUp[t_i], finish_{i-1} + minTransfer(e_i))
//	finish_i = start_i + min over candidates c of Estimate(t_i, c)
//
// and the chain is refused when some finish_i > Deadline − bestDown[t_i].
//
// Why the margin ladder would then return exactly what build returns
// without running it. While the first chain is placed nothing else is, so
// the DP's window for t_i on any node is [Release + bestUp[t_i],
// Deadline − bestDown[t_i]]: est and lft have no placed neighbours to
// tighten them. The walk relaxes every node assignment at once: by
// induction on i, any DP cell that is ok at position i — in the ideal
// phase, where a start is just the earliest admissible tick — finishes no
// earlier than finish_i, because its start is bounded below by the same
// max with a real transfer time ≥ minTransfer (no node holds a replica yet:
// an attempt starts with none and commits after its chain is placed) and
// its duration is one of the candidates'. So past the first violated
// position no cell is ok, the ideal phase fails, and placeChain returns
// InfeasibleError{Task: chain.Tasks[0]} before it reads a calendar. That is
// margin 1. scale is monotone in the margin, so bestUp and bestDown only
// grow and the windows only shrink: every later margin fails the same way.
// The argument is about true infeasibility on empty calendars, not about
// what the margin-1 DP happened to keep — under MinCost the DP keeps the
// cheapest cell, not the earliest, and its outcome is not monotone in the
// margin — so it holds under either Objective, and under either
// CollisionMode since both start from the same ideal phase.
//
// Every one of those attempts failed in its first chain's ideal phase:
// none placed a task, reserved a slot or looked for a collision (collisions
// are recorded after both phases succeed). The ladder's result is therefore
// an empty partial schedule with no collisions and the error above — what
// build returns. The one field that differs is Evaluations: the probes the
// ladder would have spent proving this are not performed, and the count
// says so (0).
func (sc *scratch) hopeless(env *resource.Environment, opt Options, chain dag.Chain) bool {
	var prevFinish simtime.Time
	for i, task := range chain.Tasks {
		start := opt.Release + sc.bestUp[task]
		if i > 0 {
			prev := chain.Tasks[i-1]
			e := sc.chainEdge(prev, task)
			if s := prevFinish + opt.Data.MinTransferTime(e.BaseTime); s > start {
				start = s
			}
		}
		fastest, base := simtime.Infinity, sc.job.Task(task).BaseTime
		for _, n := range opt.Candidates {
			if dur := resource.Estimate(base, env.Node(n).Tier()); dur > 0 && dur < fastest {
				fastest = dur
			}
		}
		if fastest == simtime.Infinity || start+fastest > opt.deadline-sc.bestDown[task] {
			return true
		}
		prevFinish = start + fastest
	}
	return false
}

// noGap is the calendar bound, asked once the margin-1 attempt has failed in
// the first critical work where the DP cut does not apply. It reports
// whether some position t_i of the chain has no candidate n with a free gap
// of Estimate(t_i, n) inside [Release + bestUp[t_i], Deadline −
// bestDown[t_i]], and how many probes it spent asking: one Calendar.FirstFree
// per candidate, a position ending at the first candidate with a gap. It
// needs the margin-1 bounds in bestUp/bestDown.
//
// Why the rest of the ladder would then end where margin 1 did. While the
// first chain is placed nothing else is: the attempt's overlay is empty, so
// firstFree is the view's own FirstFree, and the window of t_i on n is
// [est, lft] = [Release + bestUp[t_i], Deadline − bestDown[t_i]] with no
// placed neighbour to tighten it. Every calendar probe for t_i on n — a
// cell of the actual DP, or delayOnIdealNodes on the ideal node — is fit at
// some e ≥ est, which needs a free start s ≥ e with s + dur inside the
// horizon and ≤ lft. FirstFree(est) is the least free start ≥ est inside the
// horizon, so when it has none, or its start overruns lft, every such fit
// fails, and no candidate has one: the first chain fails at t_i (or in its
// ideal phase before) with InfeasibleError{Task: chain.Tasks[0]}, having
// reserved nothing and recorded no collision. That holds for every cell
// whatever the DP keeps of the one before, so under either Objective and
// either CollisionMode; and at every later margin, whose windows only
// shrink (hopeless). The ladder's result is the margin-1 attempt's, which
// run already holds.
//
// A refusal counts these probes in Evaluations, in place of the four
// attempts it spares. Each of those would probe at least once per runnable
// candidate in its first ideal row, so the bound gives up unrefused before
// it spends more, and a refusal never counts above the full ladder. A bound
// that lets the ladder go on stands in for no attempt, and its probes are
// not counted.
func (sc *scratch) noGap(env *resource.Environment, cals Calendars, opt Options, chain dag.Chain) (probes int64, refused bool) {
	var budget int64
	for _, n := range opt.Candidates {
		if resource.Estimate(sc.job.Task(chain.Tasks[0]).BaseTime, env.Node(n).Tier()) > 0 {
			budget += int64(len(margins) - 1)
		}
	}
	for _, task := range chain.Tasks {
		est, lft := opt.Release+sc.bestUp[task], opt.deadline-sc.bestDown[task]
		gap, base := false, sc.job.Task(task).BaseTime
		for _, n := range opt.Candidates {
			dur := resource.Estimate(base, env.Node(n).Tier())
			if dur <= 0 {
				continue
			}
			if probes == budget {
				return probes, false
			}
			probes++
			if s, ok := cals[n].FirstFree(est, dur, opt.horizon); ok && s+dur <= lft {
				gap = true
				break
			}
		}
		if !gap {
			return probes, true
		}
	}
	return probes, false
}

// cancelled returns a build-abort error when the run's context is done.
func cancelled(ctx context.Context, jobName string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("criticalworks: job %q build cancelled: %w", jobName, err)
	}
	return nil
}

func (b *builder) cancelled() error { return cancelled(b.opt.Ctx, b.opt.JobName) }

// buildOnce runs the full multiphase procedure for one margin: the first
// critical work the build already found, then critical works until no task
// is left.
func (b *builder) buildOnce(first dag.Chain) (*Schedule, error) {
	b.computeBounds(b.margin)
	if err := b.cancelled(); err != nil {
		return nil, err
	}
	if err := b.placeChain(first); err != nil {
		return nil, err
	}
	unplaced := func(id dag.TaskID) bool { return b.placed[id].Window.Empty() }
	for b.nPlaced < b.job.NumTasks() {
		if err := b.cancelled(); err != nil {
			return nil, err
		}
		chain, ok := b.job.LongestChainBuf(&b.chains, dag.WeightFunc{}, unplaced)
		if !ok {
			break // cannot happen while nPlaced < NumTasks; defensive
		}
		if err := b.placeChain(chain); err != nil {
			return nil, err
		}
	}
	return b.finish()
}

// partial packages an abandoned build: placements and collisions recorded
// so far, no cost accounting.
func (b *builder) partial() *Schedule {
	return &Schedule{
		Job:         b.job,
		Placements:  b.placements(),
		Collisions:  b.collisions(),
		Evaluations: b.evals,
	}
}

// computeBounds fills bestUp and bestDown: the best-case (fastest-node)
// time that must elapse before a task can start and after it finishes,
// transfer times included. These bounds both constrain tasks whose
// neighbours are not yet placed and reserve room for those neighbours:
// without the transfer terms, the first critical work packs its tasks
// back-to-back and later works cannot squeeze their tasks (plus transfers)
// into the remaining windows — the idle gaps visible in the paper's Fig. 2
// Gantt charts are exactly this reserved room.
func (sc *scratch) computeBounds(margin float64) {
	scale := func(t simtime.Time) simtime.Time {
		if margin <= 1 {
			return t
		}
		return simtime.Time(float64(t)*margin + 0.5)
	}
	n := sc.job.NumTasks()
	for i := 0; i < n; i++ {
		id := sc.job.TopoAt(i)
		var up simtime.Time
		sc.adj = sc.job.AppendIn(sc.adj[:0], id)
		for _, e := range sc.adj {
			cand := sc.bestUp[e.From] + scale(sc.job.Task(e.From).BaseTime+e.BaseTime)
			if cand > up {
				up = cand
			}
		}
		sc.bestUp[id] = up
	}
	for i := n - 1; i >= 0; i-- {
		id := sc.job.TopoAt(i)
		var down simtime.Time
		sc.adj = sc.job.AppendOut(sc.adj[:0], id)
		for _, e := range sc.adj {
			cand := sc.bestDown[e.To] + scale(sc.job.Task(e.To).BaseTime+e.BaseTime)
			if cand > down {
				down = cand
			}
		}
		sc.bestDown[id] = down
	}
}

func allNodes(env *resource.Environment) []resource.NodeID {
	ids := make([]resource.NodeID, env.NumNodes())
	for i := range ids {
		ids[i] = resource.NodeID(i)
	}
	return ids
}

// finish assembles the Schedule, prices it, commits data placements and
// verifies precedence consistency (a violation is an internal bug).
func (b *builder) finish() (*Schedule, error) {
	s := &Schedule{
		Job:         b.job,
		Placements:  b.placements(),
		Start:       simtime.Infinity,
		Evaluations: b.evals,
	}
	for id, p := range s.Placements {
		s.Cost += b.charge(dag.TaskID(id), p.Window.Len())
		if p.Window.Start < s.Start {
			s.Start = p.Window.Start
		}
		if p.Window.End > s.Finish {
			s.Finish = p.Window.End
		}
	}
	for i, m := 0, b.job.NumEdges(); i < m; i++ {
		e := b.job.EdgeAt(i)
		from, to := b.placed[e.From], b.placed[e.To]
		tt := b.transferTime(e, from.Node, to.Node)
		if to.Window.Start < from.Window.End+tt {
			return nil, fmt.Errorf("criticalworks: internal error: edge %s violates precedence (%v + %d > %v)",
				e.Name, from.Window, tt, to.Window)
		}
		b.commit(e.From, from.Node, to.Node)
	}
	// (Window.Start, Task) is a total key: a task sits in one chain, which
	// records at most one collision for it.
	slices.SortFunc(b.colls, func(a, c Collision) int {
		return cmp.Or(cmp.Compare(a.Window.Start, c.Window.Start), cmp.Compare(a.Task, c.Task))
	})
	s.Collisions = b.collisions()
	return s, nil
}

// transferTime is the policy-aware transfer time for edge e between nodes.
func (b *builder) transferTime(e dag.Edge, from, to resource.NodeID) simtime.Time {
	return b.opt.Data.TransferTime(e.BaseTime, from, to, b.held(e.From, to))
}
