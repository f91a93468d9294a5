package metasched

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/simtime"
	"repro/internal/strategy"
)

// This file implements same-tick batches (DESIGN.md §12). With
// Config.Placers > 1, jobs arriving at the same tick form a batch, and the
// engine goroutine places a batch in three steps:
//
//  1. the metascheduler assigns every member the least-loaded domain
//     (leastLoadedWith), exactly as sequential arrivals would spread;
//  2. the members are put in the arbiter's total order — the paper's
//     collision-resolution rule: priority first, then submission order —
//     and planned one after another on one view of the live books:
//     generate, choose the cheapest admissible level, reserve its windows
//     on the domain's own calendars (JobManager.plan). A member therefore
//     plans on the books as its predecessors left them and can never want
//     a window one of them took. Two jobs can only collide inside one
//     domain, so this is each domain's share of the batch placed in the
//     arbiter's order, the domains interleaved;
//  3. the engine goroutine walks the whole batch again in that order and
//     does the engine-side half of every activation (JobManager.launch:
//     events, the task-failure draw, the trace), then walks it once more
//     for the members that found no admissible level, which go back to the
//     metascheduler (reallocate). They come last because a reallocated job
//     books in another domain, whose later members must not see its
//     windows: every member gets its first chance before anyone a second.
//
// Placers ≤ 1 is the same code, not another path: every submission is a
// batch of one. Each singleton keeps its own engine event because the
// engine fires same-tick events in scheduling order: an external-load or
// outage event queued between two arrivals for that tick must see the
// first job placed and the second not yet arrived. Merging them into one
// event would move every later arrival ahead of it and change which plans
// it evicts.

// pendingArrival is one same-tick submission waiting for its batch event.
type pendingArrival struct {
	job  *dag.Job
	typ  strategy.Type
	prio int
	seq  int
}

// batchJob is one placeable batch member and what planning made of it.
type batchJob struct {
	aj  *activeJob
	key commitKey
	d   *strategy.Distribution // the level plan booked; nil if none
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

// arriveBatch is the one arrival path: it runs the metascheduler's flow
// distribution for every batch member (spreading a batch across domains
// the way sequential arrivals would; with every domain down the job is
// rejected on arrival) and places the placeable ones.
func (vo *VO) arriveBatch(batch []pendingArrival) {
	counts := make([]int, len(vo.managers))
	work := make([]*batchJob, 0, len(batch))
	for _, p := range batch {
		m := vo.leastLoadedWith(nil, counts)
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
			vo.trace(Event{Kind: EventArrive, Job: p.job.Name})
			vo.finalize(aj, StateRejected)
			continue
		}
		counts[m.idx]++
		res.Domain = m.domain
		aj.manager = m
		aj.triedDom[m.idx] = true
		vo.trace(Event{Kind: EventArrive, Job: p.job.Name, Domain: m.domain})
		vo.active[p.job.Name] = aj
		work = append(work, &batchJob{aj: aj, key: commitKey{prio: p.prio, seq: p.seq}})
	}
	vo.placeBatch(work)
}

// leastLoadedWith returns the manager that comes first by (jobs assigned
// this batch, reserved future ticks over its pool, domain name), excluding
// domains set in `except`, vetoed domains and fully-down domains. except
// and counts are by JobManager.idx; counts is nil outside a batch. Ranking
// by counts first spreads a batch out instead of piling it onto the domain
// that was lightest before any of it landed.
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

// placeBatch places a batch's members in the arbiter's order on one view of
// the live books, then does the engine-side walks (steps 2 and 3 above).
func (vo *VO) placeBatch(work []*batchJob) {
	if len(work) == 0 {
		return
	}
	sort.Slice(work, func(a, b int) bool { return commitBefore(work[a].key, work[b].key) })
	now := vo.engine.Now()
	for _, w := range work {
		ctx, cancel := vo.buildCtx(w.aj.result.Job.Name)
		w.d, w.err = w.aj.manager.plan(ctx, w.aj, vo.books, now, true)
		cancel()
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
