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
// Holder is the task of the same job whose placement in this build held the
// slot, or NoHolder when a reservation already in the view did: external
// load, another job, or this job's reservation from an earlier plan. A
// Collision holds no pointer, so the garbage collector never scans a
// schedule's collisions.
type Collision struct {
	Task   dag.TaskID
	Node   resource.NodeID
	Window simtime.Interval
	Holder dag.TaskID
}

// NoHolder is the Holder of a collision with a reservation in the view the
// build read rather than with one of the build's own placements.
const NoHolder dag.TaskID = -1

// Schedule is the paper's Distribution: a complete coordinated allocation
// of all tasks of one job, Placements[id] binding task id. Only a build that
// succeeds returns one; a failed build returns a nil Schedule and an
// *InfeasibleError that carries its counts.
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
	// it ran, a failed one in InfeasibleError.Evaluations: one the
	// admissibility bound refuses counts 0, one the DP cut stops counts the
	// margins before the cut, and one the calendar bound refuses counts
	// margin 1 plus the bound's own probes, which never exceed what the
	// spared attempts would have probed. So the count is at most the full
	// five-margin ladder's.
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
	// Telemetry, when non-nil, receives the build's counts
	// (grid_criticalworks_*: outcome counters, evaluation and collision
	// totals); its duration is the criticalworks.build span's. Telemetry
	// only observes — results are byte-identical with it on or off — and
	// a nil registry's counters no-op without allocating.
	Telemetry *telemetry.Registry
	// Spans, when non-nil, traces the build: one root span per Build,
	// a child per margin attempt, one per critical work, and one per DP
	// phase (ideal/actual). A nil tracer's spans no-op without allocating:
	// a build runs the same statements with tracing on or off.
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
// Evaluations and Collisions are the failed build's counts, which Build's
// telemetry and a strategy's probe total read: the probes of every attempt
// the build ran, by Schedule.Evaluations' rule, and the collisions the
// margin-1 attempt recorded before it failed. A refused build counts 0 of
// each.
//
// Build returns it unwrapped, so a type assertion finds it.
type InfeasibleError struct {
	Job         string
	Task        string
	Hopeless    bool
	FirstWork   bool
	Evaluations int64
	Collisions  int64
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("criticalworks: job %q: no feasible placement for task %q", e.Job, e.Task)
}

// ErrNoCandidates reports an empty candidate node set.
var ErrNoCandidates = errors.New("criticalworks: no candidate nodes")

// errInfeasible is a margin attempt's failure to place a critical work, with
// the chain's first task left in builder.failed. It never leaves the build:
// run turns the ladder's failure into the build's one InfeasibleError, so an
// attempt that fails allocates nothing.
var errInfeasible = errors.New("criticalworks: no feasible placement")

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
// returns: its working memory is a pooled arena (scratch). A failed build
// returns a nil Schedule and an *InfeasibleError holding its counts, and
// allocates that error alone.
func Build(env *resource.Environment, cals Calendars, job *dag.Job, opt Options) (*Schedule, error) {
	root := opt.Spans.Start("criticalworks.build", telemetry.SpanFromContext(opt.Ctx))
	opt, err := normalize(env, job, opt)
	root.SetStr("job", opt.JobName)
	opt.parentSpan = root.ID()
	// Before the bound: a build whose context is already done reports that,
	// never infeasibility.
	if err == nil {
		err = cancelled(opt.Ctx, opt.JobName)
	}
	var sched *Schedule
	if err == nil {
		sc := takeScratch(job, env.NumNodes())
		defer sc.release()
		sched, err = sc.run(env, cals, opt)
	}
	var evals, colls int64
	if inf, ok := err.(*InfeasibleError); ok {
		evals, colls = inf.Evaluations, inf.Collisions
	} else if sched != nil {
		evals, colls = sched.Evaluations, int64(len(sched.Collisions))
	}
	opt.Telemetry.Counter("grid_criticalworks_builds_total",
		"critical-works builds by outcome", telemetry.L("result", buildResult(err))).Inc()
	opt.Telemetry.Counter("grid_criticalworks_evaluations_total",
		"DP slot-fitting probes performed").Add(uint64(evals))
	opt.Telemetry.Counter("grid_criticalworks_collisions_total",
		"resource collisions between critical works").Add(uint64(colls))
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
	case inf != nil, err == errInfeasible:
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

// run is a build in the arena, which reset has pointed at the job: the
// admissibility bound, then the margin ladder, cut short once a proof shows
// that the margins left fail the way the last one did. opt is normalized. On
// success the arena is left holding the successful attempt; a failure
// returns the build's one InfeasibleError, made when the ladder gives up:
// the margin-1 attempt's task and collisions, with the build's probes.
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
	sc.view(env, cals, opt.Candidates)
	sc.computeBounds(1)
	if sc.hopeless(opt, first) {
		return nil, &InfeasibleError{Job: opt.JobName, Task: job.Task(first.Tasks[0]).Name, Hopeless: true, FirstWork: true}
	}

	// What the margin-1 attempt's failure reports: the task it failed at and
	// the collisions it recorded, which feed grid_criticalworks_collisions_total.
	var failed dag.TaskID
	var colls, evals int64
	firstWork := false
	for i, mg := range margins {
		if i > 0 {
			sc.computeBounds(mg) // margin 1's are the admissibility bound's
		}
		b := sc.attempt(env, cals, opt, mg)
		asp := opt.Spans.Start("criticalworks.attempt", opt.parentSpan)
		asp.SetInt("margin_pct", int64(mg*100))
		b.span = asp.ID()
		sched, err := b.buildOnce(first)
		asp.SetStr("result", buildResult(err)).SetInt("evaluations", b.evals).End()
		evals += b.evals
		if err == nil {
			sched.Evaluations = evals
			return sched, nil
		}
		if err != errInfeasible {
			return nil, err
		}
		if i == 0 {
			failed, colls = b.failed, int64(len(b.colls))
		}
		if b.nPlaced > 0 {
			continue // a later critical work failed; a wider margin may place it
		}
		// The first critical work failed: the DP cut, or after margin 1 the
		// calendar bound, may prove that every later margin fails it too.
		if opt.Objective == MinFinish && opt.Mode == ResolveReallocate {
			firstWork = i == 0
			break
		}
		if i == 0 {
			if probes, refused := sc.noGap(opt, first); refused {
				evals += probes
				firstWork = true
				break
			}
		}
	}
	return nil, &InfeasibleError{Job: opt.JobName, Task: job.Task(failed).Name, FirstWork: firstWork, Evaluations: evals, Collisions: colls}
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
// the error above with no collision counted — what build returns. The one
// count that differs is Evaluations: the probes the ladder would have spent
// proving this are not performed, and the count says so (0).
func (sc *scratch) hopeless(opt Options, chain dag.Chain) bool {
	var prevFinish simtime.Time
	for i, task := range chain.Tasks {
		start := opt.Release + sc.bestUp[task]
		if i > 0 {
			e := sc.chainEdge(chain.Tasks[i-1], task)
			if s := prevFinish + opt.Data.MinTransferTime(sc.edgeBase[e]); s > start {
				start = s
			}
		}
		fastest, base := simtime.Infinity, sc.taskBase[task]
		for _, n := range opt.Candidates {
			if dur := resource.Estimate(base, sc.tier[n]); dur > 0 && dur < fastest {
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
func (sc *scratch) noGap(opt Options, chain dag.Chain) (probes int64, refused bool) {
	var budget int64
	for _, n := range opt.Candidates {
		if resource.Estimate(sc.taskBase[chain.Tasks[0]], sc.tier[n]) > 0 {
			budget += int64(len(margins) - 1)
		}
	}
	for _, task := range chain.Tasks {
		est, lft := opt.Release+sc.bestUp[task], opt.deadline-sc.bestDown[task]
		gap, base := false, sc.taskBase[task]
		for _, n := range opt.Candidates {
			dur := resource.Estimate(base, sc.tier[n])
			if dur <= 0 {
				continue
			}
			if probes == budget {
				return probes, false
			}
			probes++
			if s, ok := sc.book[n].FirstFree(est, dur, opt.horizon); ok && s+dur <= lft {
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

// buildOnce runs the full multiphase procedure for one margin, on the bounds
// computed for it: the first critical work the build already found, then
// critical works until no task is left.
func (b *builder) buildOnce(first dag.Chain) (*Schedule, error) {
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
		for _, e := range sc.inEdges(id) {
			from := sc.edgeFrom[e]
			if cand := sc.bestUp[from] + scale(sc.taskBase[from]+sc.edgeBase[e]); cand > up {
				up = cand
			}
		}
		sc.bestUp[id] = up
	}
	for i := n - 1; i >= 0; i-- {
		id := sc.job.TopoAt(i)
		var down simtime.Time
		for _, e := range sc.outEdges(id) {
			to := sc.edgeTo[e]
			if cand := sc.bestDown[to] + scale(sc.taskBase[to]+sc.edgeBase[e]); cand > down {
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
	for i, src := range b.edgeFrom {
		from, to := b.placed[src], b.placed[b.edgeTo[i]]
		tt := b.transferTime(i, from.Node, to.Node)
		if to.Window.Start < from.Window.End+tt {
			return nil, fmt.Errorf("criticalworks: internal error: edge %s violates precedence (%v + %d > %v)",
				b.job.EdgeAt(i).Name, from.Window, tt, to.Window)
		}
		b.commit(src, from.Node, to.Node)
	}
	// (Window.Start, Task) is a total key: a task sits in one chain, which
	// records at most one collision for it.
	slices.SortFunc(b.colls, func(a, c Collision) int {
		return cmp.Or(cmp.Compare(a.Window.Start, c.Window.Start), cmp.Compare(a.Task, c.Task))
	})
	s.Collisions = b.collisions()
	return s, nil
}

// transferTime is the policy-aware transfer time for edge i between nodes.
func (b *builder) transferTime(i int, from, to resource.NodeID) simtime.Time {
	return b.opt.Data.TransferTime(b.edgeBase[i], from, to, b.held(b.edgeFrom[i], to))
}
