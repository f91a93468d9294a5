package criticalworks

import (
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/simtime"
)

// This file keeps the critical-works DP as it was before a cell probed once:
// one calendar probe per (cell, predecessor), est and lft walking the task's
// edges for every cell, and ResolveDelay reading them the same way. It is the
// reference TestDPMatchesReference and FuzzDPMatchesReference hold runDP to,
// and it reads nothing runDP prepares (builder.cells): each task's duration
// comes from env's nodes, not the tier table, and each edge from the job
// itself, not the edge tables or the job's index runs.

// refPlaceChain is placeChain with the reference DP in both phases and the
// reference delay baseline, and no tracing, over env's nodes.
func refPlaceChain(env *resource.Environment, b *builder, chain dag.Chain) error {
	ideal, ok := b.refRunDP(env, chain, true)
	if !ok {
		b.failed = chain.Tasks[0]
		return errInfeasible
	}
	if err := b.cancelled(); err != nil {
		return err
	}
	var actual []Placement
	switch b.opt.Mode {
	case ResolveDelay:
		actual, ok = b.refDelayOnIdealNodes(env, chain, ideal)
	default:
		actual, ok = b.refRunDP(env, chain, false)
	}
	if !ok {
		b.failed = chain.Tasks[0]
		return errInfeasible
	}
	for _, p := range ideal {
		if h, busy := refHolder(b, p.Node, p.Window); busy {
			b.colls = append(b.colls, Collision{Task: p.Task, Node: p.Node, Window: p.Window, Holder: h})
		}
	}
	for _, p := range actual {
		if err := b.reserve(p); err != nil {
			return err
		}
	}
	b.commitPlaced()
	return nil
}

// refHolder is what holds iv on node n as the reference sees it, which books
// every critical work into the attempt's view (refPlaceChains) before the
// next one looks for collisions: the view's first reservation overlapping
// iv, named by the task of this attempt whose placement it is, or NoHolder
// when the view held it before the build. The placement is found by a walk
// over every task, not through the overlay's node lists.
func refHolder(b *builder, n resource.NodeID, iv simtime.Interval) (dag.TaskID, bool) {
	res, busy := b.cals[n].ConflictWith(iv)
	if !busy {
		return NoHolder, false
	}
	for id, p := range b.placed {
		if p.Node == n && p.Window == res.Interval && res.Owner == b.owner(dag.TaskID(id)) {
			return dag.TaskID(id), true
		}
	}
	return NoHolder, true
}

// refRunDP finds the cost-minimal feasible placement of the chain on env's
// nodes. With ignoreCalendar the search pretends every node is free (the
// "ideal" attempt); otherwise starts come from the calendar view. The result
// lives in the state's ideal or actual buffer until the next chain's same
// phase.
func (b *builder) refRunDP(env *resource.Environment, chain dag.Chain, ignoreCalendar bool) ([]Placement, bool) {
	cands := b.opt.Candidates
	L, C := len(chain.Tasks), len(cands)
	b.dp = grow(b.dp, L*C)
	dp := b.dp // row i is dp[i*C : (i+1)*C]
	clear(dp)

	for i := 0; i < L; i++ {
		task := chain.Tasks[i]
		// The incoming edge's base time, resolved once per position: the
		// predecessor loop below runs C² times and must not copy an Edge out
		// of the job on each pass.
		var inBase simtime.Time
		var prevRow []cell
		if i > 0 {
			inBase = b.refChainEdge(chain.Tasks[i-1], task).BaseTime
			prevRow = dp[(i-1)*C : i*C]
		}
		for c, n := range cands {
			dur := resource.Estimate(b.job.Task(task).BaseTime, env.Node(n).Tier())
			if dur <= 0 {
				continue
			}
			// Functions of (task, n) alone: once per cell, not per predecessor.
			est, lft, charge := b.refEst(task, n), b.refLft(task, n), b.charge(task, dur)
			var book *resource.Calendar // stays nil in the ideal phase
			if !ignoreCalendar {
				book = b.cals[n]
			}
			best := cell{}
			if i == 0 {
				if st, fin, ok := b.fit(n, book, est, dur, lft); ok {
					best = cell{ok: true, cost: charge, start: st, finish: fin, prev: -1}
				}
			} else {
				// Whether the predecessor's output is already at n: a bit
				// test, the same for every predecessor node.
				held := b.held(chain.Tasks[i-1], n)
				for m, pn := range cands {
					prevCell := prevRow[m]
					if !prevCell.ok {
						continue
					}
					earliest := prevCell.finish + b.opt.Data.TransferTime(inBase, pn, n, held)
					if est > earliest {
						earliest = est
					}
					st, fin, ok := b.fit(n, book, earliest, dur, lft)
					if !ok {
						continue
					}
					cand := cell{
						ok:     true,
						cost:   prevCell.cost + charge,
						start:  st,
						finish: fin,
						prev:   m,
					}
					if b.betterCell(cand, best) {
						best = cand
					}
				}
			}
			dp[i*C+c] = best
		}
	}

	// Select the best terminal state and backtrack.
	final, finalIdx := cell{}, -1
	for c, last := range dp[(L-1)*C:] {
		if b.betterCell(last, final) {
			final, finalIdx = last, c
		}
	}
	if finalIdx < 0 {
		return nil, false
	}
	placements := b.actual[:L]
	if ignoreCalendar {
		placements = b.ideal[:L]
	}
	for i, c := L-1, finalIdx; i >= 0; i-- {
		st := dp[i*C+c]
		placements[i] = Placement{
			Task:   chain.Tasks[i],
			Node:   cands[c],
			Window: simtime.Interval{Start: st.start, End: st.finish},
		}
		c = st.prev
	}
	return placements, true
}

// refDelayOnIdealNodes is the E8 ablation baseline: keep every task on its
// ideal node of env and only push it later until the calendar has room.
func (b *builder) refDelayOnIdealNodes(env *resource.Environment, chain dag.Chain, ideal []Placement) ([]Placement, bool) {
	out := b.actual[:len(ideal)]
	var prevFinish simtime.Time
	var prevNode resource.NodeID
	for i, p := range ideal {
		task := p.Task
		n := p.Node
		node := env.Node(n)
		dur := resource.Estimate(b.job.Task(task).BaseTime, node.Tier())
		earliest := b.refEst(task, n)
		if i > 0 {
			e := b.refChainEdge(chain.Tasks[i-1], task)
			if t := prevFinish + b.refTransferTime(e, prevNode, n); t > earliest {
				earliest = t
			}
		}
		st, fin, ok := b.fit(n, b.cals[n], earliest, dur, b.refLft(task, n))
		if !ok {
			return nil, false
		}
		out[i] = Placement{Task: task, Node: n, Window: simtime.Interval{Start: st, End: fin}}
		prevFinish, prevNode = fin, n
	}
	return out, true
}

// refEst returns the earliest start of task on node n: the release time, the
// optimistic upstream bound, and the hard constraints from already-placed
// predecessors.
func (b *builder) refEst(task dag.TaskID, n resource.NodeID) simtime.Time {
	t := b.opt.Release + b.bestUp[task]
	for _, e := range b.job.In(task) {
		p, ok := b.placement(e.From)
		if !ok {
			continue
		}
		if cand := p.Window.End + b.refTransferTime(e, p.Node, n); cand > t {
			t = cand
		}
	}
	return t
}

// refLft returns the latest finish of task on node n: the deadline tightened
// by the optimistic downstream bound and by already-placed successors.
func (b *builder) refLft(task dag.TaskID, n resource.NodeID) simtime.Time {
	t := b.deadline - b.bestDown[task]
	for _, e := range b.job.Out(task) {
		s, ok := b.placement(e.To)
		if !ok {
			continue
		}
		if cand := s.Window.Start - b.refTransferTime(e, n, s.Node); cand < t {
			t = cand
		}
	}
	return t
}

// refChainEdge is chainEdge read off the job's own edges: the cheapest edge
// from one chain task to the next, the first of equals.
func (b *builder) refChainEdge(from, to dag.TaskID) dag.Edge {
	var best dag.Edge
	found := false
	for _, e := range b.job.Out(from) {
		if e.To == to && (!found || e.BaseTime < best.BaseTime) {
			best, found = e, true
		}
	}
	if !found {
		panic("reference: chain tasks not connected")
	}
	return best
}

// refTransferTime is transferTime for an edge read off the job.
func (b *builder) refTransferTime(e dag.Edge, from, to resource.NodeID) simtime.Time {
	return b.opt.Data.TransferTime(e.BaseTime, from, to, b.held(e.From, to))
}
