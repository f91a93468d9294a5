package metasched

import (
	"context"
	"sort"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/parallel"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// This file implements shared-state optimistic concurrent placement
// (DESIGN.md §12). With Config.Placers > 1, jobs arriving at the same
// tick form a batch. Each round of a batch:
//
//  1. builds every job's strategy concurrently on the live books
//     (liveBooks; up to Placers goroutines; a build reads its view and
//     writes nothing, and the engine goroutine — the books' only writer —
//     is parked in parallel.Map until every worker has returned, so the
//     builds are pure functions of one state and the parallelism cannot
//     leak into the results),
//  2. walks the jobs sequentially in the arbiter's total order — the
//     paper's collision-resolution rule: priority first, then submission
//     order — offering each job's admissible levels cheapest-first to
//     JobManager.activate, which books a level only if every one of its
//     windows is still free after the earlier winners of the round,
//  3. carries the jobs that lost every level into the next round, which
//     builds on the books as the winners left them; after placerRounds
//     rounds the stragglers take the guaranteed sequential path
//     (JobManager.adopt), which builds and books inside one event and so
//     cannot lose.
//
// Placers ≤ 1 is the same code at width 1, not another path: every
// submission is a singleton batch, and a batch of one skips the rounds
// and goes straight to adopt (no one to conflict with). Each singleton
// keeps its own engine event because the engine fires same-tick events
// in scheduling order: an external-load or outage event queued between
// two arrivals for that tick must see the first job placed and the
// second not yet arrived. Merging them into one event would move every
// later arrival ahead of it and change which plans it evicts.

// placerRounds bounds the optimistic rounds a contended batch gets before
// its remaining jobs fall back to the sequential path.
const placerRounds = 3

// pendingArrival is one same-tick submission waiting for its batch event.
type pendingArrival struct {
	job  *dag.Job
	typ  strategy.Type
	prio int
	seq  int
}

// placerJob is one batch member still looking for a committed plan.
type placerJob struct {
	aj      *activeJob
	prio    int
	seq     int
	initial bool // first generation defines the admissibility record
}

func (w *placerJob) key() commitKey { return commitKey{prio: w.prio, seq: w.seq} }

// commitKey orders a round's plans at the commit step. The order is
// total: any two distinct submissions differ in seq.
type commitKey struct {
	prio int
	seq  int
}

// commitBefore is the arbiter's collision-resolution order: higher
// priority first (QoS), then earlier submission.
func commitBefore(a, b commitKey) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

// placerMetrics holds the optimistic-commit counters; all nil (and every
// observation a no-op) unless telemetry is enabled with Placers > 1.
type placerMetrics struct {
	commits   *telemetry.Counter
	conflicts *telemetry.Counter
	retries   *telemetry.Counter
	fallbacks *telemetry.Counter
}

func (pm *placerMetrics) register(reg *telemetry.Registry) {
	pm.commits = reg.Counter("grid_placer_commits_total",
		"levels the optimistic arbiter booked (every window still free at commit time)")
	pm.conflicts = reg.Counter("grid_placer_conflicts_total",
		"levels the optimistic arbiter refused at commit time (a window was taken earlier in the round)")
	pm.retries = reg.Counter("grid_placer_retries_total",
		"jobs carried into another optimistic round after losing every level")
	pm.fallbacks = reg.Counter("grid_placer_sequential_fallbacks_total",
		"jobs that exhausted the optimistic rounds and placed sequentially")
}

// placers returns the effective placer count (≥ 1).
func (vo *VO) placers() int {
	if vo.cfg.Placers < 1 {
		return 1
	}
	return vo.cfg.Placers
}

// liveBooks is the view every build of this VO plans on: each node mapped
// to its live calendar itself, no copy. That is sound because a build only
// reads its view (the criticalworks.Build contract) and the engine
// goroutine, the books' only writer, is the one building — synchronously in
// adopt and fallback, between a read and a write of its own, and parked in
// parallel.Map for the whole build phase of a placer round (Map joins every
// worker before it returns, cancelled or not). The view is resolved from the
// nodes each time it is taken and dropped with the event: Environment.Reset
// replaces the books, and nothing built from a view retains a *Calendar.
func (vo *VO) liveBooks() criticalworks.Calendars {
	out := make(criticalworks.Calendars, vo.env.NumNodes())
	for _, n := range vo.env.Nodes() {
		out[n.ID] = n.Calendar()
	}
	return out
}

// arriveBatch is the one arrival path: it runs the metascheduler's flow
// distribution for every batch member (spreading a batch across domains
// the way sequential arrivals would; with every domain down the job is
// rejected on arrival) and hands the placeable ones to the placer pool.
func (vo *VO) arriveBatch(batch []pendingArrival) {
	counts := make(map[string]int)
	work := make([]*placerJob, 0, len(batch))
	for _, p := range batch {
		m := vo.placeJob(nil, counts)
		res := &JobResult{
			Job:     p.job,
			Type:    p.typ,
			Arrival: vo.engine.Now(),
			State:   StateRejected, // until proven otherwise
		}
		aj := &activeJob{
			result:   res,
			used:     make(map[resource.Tier]bool),
			triedDom: map[string]bool{},
			failedAt: -1,
		}
		if m == nil {
			vo.trace(EventArrive, p.job.Name, "", nil)
			vo.finalize(aj, StateRejected)
			continue
		}
		counts[m.domain]++
		res.Domain = m.domain
		aj.manager = m
		aj.triedDom[m.domain] = true
		if vo.cfg.Telemetry != nil {
			vo.cfg.Telemetry.Counter("grid_metasched_placements_total",
				"jobs placed by the metascheduler, per domain", telemetry.L("domain", m.domain)).Inc()
		}
		vo.trace(EventArrive, p.job.Name, m.domain, nil)
		vo.active[p.job.Name] = aj
		work = append(work, &placerJob{aj: aj, prio: p.prio, seq: p.seq, initial: true})
	}
	vo.placeConcurrent(work)
}

// leastLoadedWith returns the manager that comes first by (jobs assigned
// this batch, reserved future ticks over its pool, domain name), excluding
// domains in `except`, vetoed domains and fully-down domains. counts is
// nil outside a batch.
func (vo *VO) leastLoadedWith(except map[string]bool, counts map[string]int) *JobManager {
	now := vo.engine.Now()
	span := simtime.Interval{Start: now, End: now + 1000}
	var best *JobManager
	var bestLoad float64
	bestCount := 0
	for _, m := range vo.managers {
		if except[m.domain] || !vo.env.DomainUp(m.domain) || !vo.domainAllowed(m.domain) {
			continue
		}
		var load float64
		for _, id := range m.pool {
			load += float64(vo.env.Node(id).Calendar().BusyIn(span))
		}
		load /= float64(len(m.pool))
		c := counts[m.domain]
		better := best == nil || c < bestCount ||
			(c == bestCount && (load < bestLoad || (load == bestLoad && m.domain < best.domain)))
		if better {
			best, bestLoad, bestCount = m, load, c
		}
	}
	return best
}

// placeConcurrent drives a batch through optimistic rounds until every
// job committed a plan, was rejected, or fell back. The sequential
// fallback is the progress guarantee: a single job cannot conflict with
// itself, and adopt holds the only writer. It is also all a batch of one
// ever needs, which is how width 1 (Placers ≤ 1) places every job.
func (vo *VO) placeConcurrent(work []*placerJob) {
	for round := 0; len(work) > 0; round++ {
		if round >= placerRounds || len(work) == 1 {
			for _, w := range work {
				if round > 0 {
					vo.pm.fallbacks.Inc()
				}
				w.aj.manager.adopt(w.aj, w.initial)
			}
			return
		}
		work = vo.placeRound(work)
	}
}

// placeRound runs one optimistic round: concurrent strategy builds on the
// live books, then deterministic arbitration and commit. It returns the
// jobs that lost every admissible level at commit time and should retry on
// the books as this round's winners left them.
func (vo *VO) placeRound(work []*placerJob) []*placerJob {
	now := vo.engine.Now()
	books := vo.liveBooks()

	// Build contexts are acquired sequentially: the service's BuildCtx
	// hook arms per-job timers and is not required to be goroutine-safe.
	ctxs := make([]context.Context, len(work))
	for i, w := range work {
		ctxs[i] = vo.buildCtx(w.aj.result.Job.Name)
	}
	type buildOut struct {
		st  *strategy.Strategy
		err error
	}
	outs, err := parallel.Map(vo.placers(), len(work), func(i int) (buildOut, error) {
		w := work[i]
		st, gerr := w.aj.manager.generate(ctxs[i], w.aj, books, now)
		return buildOut{st: st, err: gerr}, nil
	})
	if err != nil {
		// The builders only ever return nil errors; Map can fail solely by
		// a worker panicking, which must not be swallowed.
		panic(err)
	}

	// The arbiter's total order: the paper's priority/QoS collision
	// resolution, independent of build completion order.
	order := make([]int, len(work))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return commitBefore(work[order[a]].key(), work[order[b]].key())
	})

	var carry []*placerJob
	for _, i := range order {
		w, out := work[i], outs[i]
		aj := w.aj
		if out.err != nil {
			// Structural failures cannot happen for generator-produced
			// jobs; treat as rejection exactly like the sequential path.
			vo.finalize(aj, StateRejected)
			continue
		}
		st := out.st
		aj.install(st, w.initial)
		w.initial = false
		if !st.Admissible() {
			vo.reallocate(aj)
			continue
		}
		// Walk the admissible levels cheapest-first until one is booked.
		// Commit losses stay in a round-local set: a level blocked by this
		// round's winners may fit next round, so it must not be burned in
		// aj.used the way activated levels are.
		tried := make(map[resource.Tier]bool)
		committed := false
		for {
			d := st.AdmissibleAfter(tried)
			if d == nil {
				break
			}
			tried[d.Level] = true
			if !aj.manager.activate(aj, d) {
				vo.pm.conflicts.Inc()
				continue
			}
			vo.pm.commits.Inc()
			committed = true
			break
		}
		if committed {
			continue
		}
		vo.pm.retries.Inc()
		carry = append(carry, w)
	}
	return carry
}
