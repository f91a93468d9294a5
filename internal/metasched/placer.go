package metasched

import (
	"context"
	"sort"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/parallel"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// This file implements the per-domain placement pipelines (DESIGN.md §12).
// With Config.Placers > 1, jobs arriving at the same tick form a batch, and
// a batch is placed in three phases:
//
//  1. the metascheduler assigns every member a domain (placeJob), exactly
//     as sequential arrivals would spread;
//  2. the members are put in the arbiter's total order — the paper's
//     collision-resolution rule: priority first, then submission order —
//     and split by domain. Each domain's pipeline walks its members in that
//     order: generate on the live books, choose the cheapest admissible
//     level, reserve its windows on the domain's own calendars (JobManager.
//     plan), next member — which therefore plans on the books as its
//     predecessors left them and can never want a window one of them took.
//     Two jobs can only collide inside one domain, and pipelines of
//     different domains touch disjoint pools, per-job catalogs and
//     per-domain generators, so up to Placers of them run at once while
//     the engine goroutine is parked in parallel.ForEach;
//  3. after the join the engine goroutine walks the whole batch once in the
//     arbiter's order and does the engine-side half of every activation
//     (JobManager.launch: events, the task-failure draw, the trace), then
//     walks it again for the members that found no admissible level, which
//     go back to the metascheduler (reallocate). They wait for the end of
//     the batch because a reallocated job plans in another domain, whose
//     books belong to that domain's pipeline until the join.
//
// The width — how many pipelines run at once — is therefore not an input
// to the answer: at any Placers > 1 a batch gets the books, the results and
// the trace it would get with its pipelines run one after another.
//
// Placers ≤ 1 is the same code, not another path: every submission is a
// batch of one, so one pipeline of one job runs inline. Each singleton
// keeps its own engine event because the engine fires same-tick events in
// scheduling order: an external-load or outage event queued between two
// arrivals for that tick must see the first job placed and the second not
// yet arrived. Merging them into one event would move every later arrival
// ahead of it and change which plans it evicts.

// pendingArrival is one same-tick submission waiting for its batch event.
type pendingArrival struct {
	job  *dag.Job
	typ  strategy.Type
	prio int
	seq  int
}

// batchJob is one placeable batch member and what its domain's pipeline
// made of it.
type batchJob struct {
	aj  *activeJob
	key commitKey
	ctx context.Context
	d   *strategy.Distribution // the level the pipeline booked; nil if none
	err error                  // structural generation failure
}

// commitKey orders a batch's members. The order is total: any two distinct
// submissions differ in seq.
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

// liveBooks is the view every build of this VO plans on: each node mapped
// to its live calendar itself, no copy. That is sound because a build only
// reads its view (the criticalworks.Build contract) and only the candidate
// nodes of its own domain's pool, and a domain's books have exactly one
// writer at a time: the engine goroutine — building synchronously in adopt
// and fallback, between a read and a write of its own — or, while it is
// parked in a batch's pipeline phase, that domain's pipeline. The view is
// one map the VO owns, refilled from the nodes each time it is taken:
// Environment.Reset replaces the books, and nothing built from a view
// retains a *Calendar. Refilling is the engine goroutine's alone, and it
// never takes the view while pipelines are reading it — it is parked until
// they join.
func (vo *VO) liveBooks() criticalworks.Calendars {
	for _, n := range vo.env.Nodes() {
		vo.books[n.ID] = n.Calendar()
	}
	return vo.books
}

// arriveBatch is the one arrival path: it runs the metascheduler's flow
// distribution for every batch member (spreading a batch across domains
// the way sequential arrivals would; with every domain down the job is
// rejected on arrival) and hands the placeable ones to the pipelines.
func (vo *VO) arriveBatch(batch []pendingArrival) {
	counts := make([]int, len(vo.managers))
	work := make([]*batchJob, 0, len(batch))
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
			triedDom: make([]bool, len(vo.managers)),
			failedAt: -1,
		}
		if m == nil {
			vo.trace(EventArrive, p.job.Name, "", nil)
			vo.finalize(aj, StateRejected)
			continue
		}
		counts[m.idx]++
		res.Domain = m.domain
		aj.manager = m
		aj.triedDom[m.idx] = true
		if vo.cfg.Telemetry != nil {
			vo.cfg.Telemetry.Counter("grid_metasched_placements_total",
				"jobs placed by the metascheduler, per domain", telemetry.L("domain", m.domain)).Inc()
		}
		vo.trace(EventArrive, p.job.Name, m.domain, nil)
		vo.active[p.job.Name] = aj
		work = append(work, &batchJob{aj: aj, key: commitKey{prio: p.prio, seq: p.seq}})
	}
	vo.placeBatch(work)
}

// leastLoadedWith returns the manager that comes first by (jobs assigned
// this batch, reserved future ticks over its pool, domain name), excluding
// domains set in `except`, vetoed domains and fully-down domains. except
// and counts are by JobManager.idx; counts is nil outside a batch.
func (vo *VO) leastLoadedWith(except []bool, counts []int) *JobManager {
	now := vo.engine.Now()
	span := simtime.Interval{Start: now, End: now + 1000}
	var best *JobManager
	var bestLoad float64
	bestCount := 0
	for _, m := range vo.managers {
		if m.excluded(except) {
			continue
		}
		var load float64
		for _, id := range m.pool {
			load += float64(vo.env.Node(id).Calendar().BusyIn(span))
		}
		load /= float64(len(m.pool))
		c := 0
		if counts != nil {
			c = counts[m.idx]
		}
		better := best == nil || c < bestCount ||
			(c == bestCount && (load < bestLoad || (load == bestLoad && m.domain < best.domain)))
		if better {
			best, bestLoad, bestCount = m, load, c
		}
	}
	return best
}

// placeBatch places a batch's members: one pipeline per domain on the
// books, then the engine-side walks (phases 2 and 3 above).
func (vo *VO) placeBatch(work []*batchJob) {
	if len(work) == 0 {
		return
	}
	sort.Slice(work, func(a, b int) bool { return commitBefore(work[a].key, work[b].key) })
	// Build contexts are acquired here, sequentially: the service's BuildCtx
	// hook arms per-job timers and is not required to be goroutine-safe.
	for _, w := range work {
		w.ctx = vo.buildCtx(w.aj.result.Job.Name)
	}
	var lines [][]*batchJob
	for _, m := range vo.managers {
		var line []*batchJob
		for _, w := range work {
			if w.aj.manager == m {
				line = append(line, w)
			}
		}
		if line != nil {
			lines = append(lines, line)
		}
	}
	now := vo.engine.Now()
	books := vo.liveBooks()
	if err := parallel.ForEach(max(vo.cfg.Placers, 1), len(lines), func(i int) error {
		for _, w := range lines[i] {
			w.d, w.err = w.aj.manager.plan(w.ctx, w.aj, books, now, true)
		}
		return nil
	}); err != nil {
		// A pipeline only ever returns nil; ForEach can fail solely by one
		// panicking, which must not be swallowed.
		panic(err)
	}
	for _, w := range work {
		if w.d != nil {
			vo.placerCommits.Inc()
			w.aj.manager.launch(w.aj, w.d)
		}
	}
	for _, w := range work {
		if w.d == nil {
			vo.unplaced(w.aj, w.err)
		}
	}
}
