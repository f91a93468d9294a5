package criticalworks

import (
	"slices"

	"repro/internal/dag"
	"repro/internal/economy"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// placeChain schedules one critical work: it computes the chain's ideal
// placement on empty calendars (the placement the chain "attempts"), the
// actual placement against the view as the attempt sees it, records a
// collision for every task whose ideal slot is already reserved, and books
// the actual reservations in the overlay. A chain that has no placement
// leaves its first task in b.failed and returns errInfeasible.
func (b *builder) placeChain(chain dag.Chain) error {
	evals0 := b.evals
	chainSpan := b.opt.Spans.Start("criticalworks.chain", b.span)
	chainSpan.SetInt("tasks", int64(len(chain.Tasks)))
	defer func() { chainSpan.SetInt("evaluations", b.evals-evals0).End() }()

	ideal, ok := b.runDP(chainSpan.ID(), chain, true)
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
		actual, ok = b.delayOnIdealNodes(chain, ideal)
	default:
		actual, ok = b.runDP(chainSpan.ID(), chain, false)
	}
	if !ok {
		b.failed = chain.Tasks[0]
		return errInfeasible
	}

	// A collision is an ideal slot that the calendar view cannot grant.
	for _, p := range ideal {
		if h, busy := b.holder(p.Node, p.Window); busy {
			b.colls = append(b.colls, Collision{Task: p.Task, Node: p.Node, Window: p.Window, Holder: h})
		}
	}

	for _, p := range actual {
		if err := b.reserve(p); err != nil {
			return err // internal bug: DP chose an occupied slot
		}
	}
	b.commitPlaced()
	return nil
}

// cell is one DP state: the best (cost, finish) for "chain prefix ending
// with position i on node cands[c]".
type cell struct {
	ok            bool
	cost          int64
	start, finish simtime.Time
	prev          int // candidate index at position i-1, -1 at i=0
}

// betterCell orders candidate states lexicographically according to the
// configured objective: (finish, cost) for MinFinish, (cost, finish) for
// MinCost.
func (b *builder) betterCell(a, c cell) bool {
	if !c.ok {
		return a.ok
	}
	if !a.ok {
		return false
	}
	if b.opt.Objective == MinCost {
		if a.cost != c.cost {
			return a.cost < c.cost
		}
		return a.finish < c.finish
	}
	if a.finish != c.finish {
		return a.finish < c.finish
	}
	return a.cost < c.cost
}

// cellIn is what a DP cell reads of its (task, node) pair alone: the
// task's duration there, its earliest start, its latest finish and its
// charge.
type cellIn struct {
	dur, est, lft simtime.Time
	charge        int64
}

// link is an edge between a chain task and a neighbour the attempt has
// already placed, reduced to what est and lft read of it.
type link struct {
	base     simtime.Time    // the edge's base transfer time
	producer dag.TaskID      // the edge's source, whose replica row says held
	node     resource.NodeID // the neighbour's node
	at       simtime.Time    // the neighbour's finish (an input) or start (an output)
}

// pred is a feasible cell of the previous chain position as every cell of
// the current one sees it. key is its finish plus the producer's leg of the
// incoming transfer, which does not depend on the consumer's node: it
// reaches a cell on node n at max(est, key + the consumer's leg into n).
// A group is the entries bestPred probes for at once: the whole row under
// MinFinish, one cost under MinCost.
type pred struct {
	key  simtime.Time
	cost int64 // the chain's cost up to and including the predecessor
	m    int32 // its candidate index
	best int32 // the row position of its group's least (cost, index) up to it
	end  int32 // one past its group
}

// runDP finds the cost-minimal feasible placement of the chain, under a
// criticalworks.dp span that is parent's child. With ignoreCalendar the
// search pretends every node is free (the "ideal" phase); otherwise starts
// come from the calendar view (the "actual" phase). The result lives in the
// scratch's ideal or actual buffer until the next chain's same phase.
func (b *builder) runDP(parent telemetry.SpanID, chain dag.Chain, ignoreCalendar bool) ([]Placement, bool) {
	phase := "actual"
	if ignoreCalendar {
		phase = "ideal"
	}
	sp := b.opt.Spans.Start("criticalworks.dp", parent)
	sp.SetStr("phase", phase)
	if ignoreCalendar {
		// The ideal phase runs first for every chain, and nothing is placed
		// before the actual phase or delayOnIdealNodes reads the same cells.
		b.prepareCells(chain)
	}
	cands := b.opt.Candidates
	L, C := len(chain.Tasks), len(cands)
	b.dp = grow(b.dp, L*C)
	dp := b.dp // row i is dp[i*C : (i+1)*C], and so is b.cells'
	clear(dp)

	for i := 0; i < L; i++ {
		// The incoming edge's base time, resolved once per position.
		var inBase simtime.Time
		if i > 0 {
			inBase = b.edgeBase[b.chainEdge(chain.Tasks[i-1], chain.Tasks[i])]
			if b.sortRow(dp[(i-1)*C:i*C], inBase); len(b.preds) == 0 {
				// No cell of the row before is feasible, so none of this row
				// or any later one is, and none would probe: the table's
				// cleared rows already say so.
				break
			}
		}
		for c, n := range cands {
			in := &b.cells[i*C+c]
			if in.dur <= 0 {
				continue
			}
			var book *resource.Calendar // stays nil in the ideal phase
			if !ignoreCalendar {
				book = b.book[n]
			}
			if i == 0 {
				if st, fin, ok := b.fit(n, book, in.est, in.dur, in.lft); ok {
					dp[c] = cell{ok: true, cost: in.charge, start: st, finish: fin, prev: -1}
				}
				continue
			}
			// The consumer's leg into n, the same for every predecessor.
			recv := b.opt.Data.ReceiveTime(inBase, n, b.held(chain.Tasks[i-1], n))
			b.bestPred(&dp[i*C+c], n, book, in, recv)
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
		sp.SetStr("result", "infeasible").End()
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
	sp.End()
	return placements, true
}

// sortRow puts the feasible cells of row, the previous chain position, in
// b.preds in the order bestPred probes them — by (key, index) under
// MinFinish, by (cost, key, index) under MinCost — and fills each entry's
// best and end. The row is gathered in index order and each entry is
// inserted after every entry that does not sort above it on key, or on
// (cost, key), so entries equal there keep index order: the sort compares
// the fields themselves, exact for any values, and calls no comparator.
func (b *builder) sortRow(row []cell, inBase simtime.Time) {
	minCost := b.opt.Objective == MinCost
	preds, n := grow(b.preds, len(row)), 0
	for m := range row {
		p := &row[m]
		if !p.ok {
			continue
		}
		x := pred{key: p.finish + b.opt.Data.SendTime(inBase, b.opt.Candidates[m]), cost: p.cost, m: int32(m)}
		k := n
		for n++; k > 0; k-- {
			q := &preds[k-1]
			if minCost && q.cost != x.cost {
				if q.cost < x.cost {
					break
				}
			} else if q.key <= x.key {
				break
			}
			preds[k] = *q
		}
		preds[k] = x
	}
	preds = preds[:n]
	b.preds = preds
	end := int32(len(preds))
	for k := len(preds) - 1; k >= 0; k-- {
		if minCost && k+1 < len(preds) && preds[k+1].cost != preds[k].cost {
			end = int32(k + 1)
		}
		preds[k].end = end
	}
	for k := range preds {
		preds[k].best = int32(k)
		if k > 0 && preds[k-1].end == preds[k].end {
			j := preds[k-1].best
			if q, p := &preds[j], &preds[k]; q.cost < p.cost || q.cost == p.cost && q.m < p.m {
				preds[k].best = j
			}
		}
	}
}

// bestPred fills out, the DP cell of the current task on node n, which
// runDP has cleared, from the previous row as sortRow left it in b.preds, recv being the consumer's leg
// of the transfer into n. It issues the probes a walk over every
// predecessor would have to, and no others, and picks the predecessor that
// walk would pick.
//
// Why this is exact. A predecessor reaches the cell at its earliest start
// max(est, key + recv), and only through that start and its cost. fit(n,
// book, e, dur, lft) returns the least start ≥ e in a set that e does not
// change: the starts s with [s, s+dur) free in the merged book (firstFree),
// inside the horizon and with s+dur ≤ lft — a start past the horizon or lft
// has only later ones past it too. So fit never decreases as e grows, fails
// for every e at or above one it fails at, and returns the same start s for
// every e in [e₀, s] once it returns s at e₀. Hence a group is probed once,
// at its least earliest start, that of its first key, and:
//
//   - MinFinish ranks (finish, cost): the row is one group. A miss leaves
//     the cell infeasible. A hit at s is the least finish.
//   - MinCost ranks (cost, finish): the groups are probed cheapest first. A
//     hit at s is the cell: nothing cheaper is feasible, and s is the
//     group's least finish. A miss at e rules out every predecessor whose
//     earliest start is at or above e, so a later group whose least
//     earliest start is at or above the last miss is skipped unprobed.
//     Misses only fall, and a hit lies below all of them.
//
// The predecessors a hit at s admits are the group's members whose
// earliest start is ≤ s: as est ≤ s, those with key + recv ≤ s, a prefix of
// the group that a binary search finds. The winner is the cheapest of them,
// the lowest candidate index among equals — what betterCell picks over a
// probe per predecessor (TestDPBreaksCostTiesByIndex) — and the prefix's
// last entry names it.
func (b *builder) bestPred(out *cell, n resource.NodeID, book *resource.Calendar, in *cellIn, recv simtime.Time) {
	preds := b.preds
	var miss simtime.Time
	missed := false
	for g := 0; g < len(preds); g = int(preds[g].end) {
		e := max(in.est, preds[g].key+recv)
		if missed && e >= miss {
			continue
		}
		start, finish, ok := b.fit(n, book, e, in.dur, in.lft)
		if !ok {
			miss, missed = e, true
			continue
		}
		w := preds[reach(preds, g, int(preds[g].end), start-recv)-1].best
		*out = cell{ok: true, cost: preds[w].cost + in.charge, start: start, finish: finish, prev: int(preds[w].m)}
		return
	}
}

// reach returns the first position in preds[lo:hi], sorted by key, whose
// key is above lim, or hi.
func reach(preds []pred, lo, hi int, lim simtime.Time) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if preds[mid].key <= lim {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// prepareCells fills b.cells with the cellIn of every (chain position,
// candidate) pair. Both DP phases of the chain read them: nothing is placed
// between the two. A task's placed neighbours are collected once per row
// (linkPlaced), not walked again for every node.
func (b *builder) prepareCells(chain dag.Chain) {
	cands := b.opt.Candidates
	C := len(cands)
	b.cells = grow(b.cells, len(chain.Tasks)*C)
	for i, task := range chain.Tasks {
		b.linkPlaced(task)
		up, down := b.opt.Release+b.bestUp[task], b.opt.deadline-b.bestDown[task]
		base, vol := b.taskBase[task], b.taskVol[task]
		for c, n := range cands {
			in := cellIn{dur: resource.Estimate(base, b.tier[n])}
			if in.dur > 0 {
				in.est, in.lft, in.charge = b.est(up, n), b.lft(down, n), economy.TaskCharge(vol, in.dur)
			}
			b.cells[i*C+c] = in
		}
	}
}

// linkPlaced collects task's edges to neighbours the attempt has placed:
// from its placed predecessors in b.ins, to its placed successors in b.outs.
func (b *builder) linkPlaced(task dag.TaskID) {
	b.ins, b.outs = b.ins[:0], b.outs[:0]
	for _, e := range b.inEdges(task) {
		from := b.edgeFrom[e]
		if p, ok := b.placement(from); ok {
			b.ins = append(b.ins, link{base: b.edgeBase[e], producer: from, node: p.Node, at: p.Window.End})
		}
	}
	for _, e := range b.outEdges(task) {
		if s, ok := b.placement(b.edgeTo[e]); ok {
			b.outs = append(b.outs, link{base: b.edgeBase[e], producer: task, node: s.Node, at: s.Window.Start})
		}
	}
}

// est returns the earliest start on node n of the task linkPlaced visited
// last: up (the release time plus the optimistic upstream bound) and the
// hard constraints from its placed predecessors.
func (b *builder) est(up simtime.Time, n resource.NodeID) simtime.Time {
	t := up
	for _, l := range b.ins {
		if cand := l.at + b.opt.Data.TransferTime(l.base, l.node, n, b.held(l.producer, n)); cand > t {
			t = cand
		}
	}
	return t
}

// lft returns the latest finish on node n of the task linkPlaced visited
// last: down (the deadline tightened by the optimistic downstream bound)
// and the hard constraints from its placed successors.
func (b *builder) lft(down simtime.Time, n resource.NodeID) simtime.Time {
	t := down
	for _, l := range b.outs {
		if cand := l.at - b.opt.Data.TransferTime(l.base, n, l.node, b.held(l.producer, l.node)); cand < t {
			t = cand
		}
	}
	return t
}

// delayOnIdealNodes is the E8 ablation baseline: keep every task on its
// ideal node and only push it later until the calendar has room. It reads
// the cells the ideal phase prepared.
func (b *builder) delayOnIdealNodes(chain dag.Chain, ideal []Placement) ([]Placement, bool) {
	C := len(b.opt.Candidates)
	out := b.actual[:len(ideal)]
	var prevFinish simtime.Time
	var prevNode resource.NodeID
	for i, p := range ideal {
		n := p.Node
		in := b.cells[i*C+slices.Index(b.opt.Candidates, n)]
		earliest := in.est
		if i > 0 {
			e := b.chainEdge(chain.Tasks[i-1], p.Task)
			if t := prevFinish + b.transferTime(e, prevNode, n); t > earliest {
				earliest = t
			}
		}
		st, fin, ok := b.fit(n, b.book[n], earliest, in.dur, in.lft)
		if !ok {
			return nil, false
		}
		out[i] = Placement{Task: p.Task, Node: n, Window: simtime.Interval{Start: st, End: fin}}
		prevFinish, prevNode = fin, n
	}
	return out, true
}

// fit finds the earliest start ≥ earliest for a reservation of length dur
// on node n that finishes by lft. book is the view's calendar for n, looked
// up once per DP cell; nil pretends the node is free (the ideal phase).
func (b *builder) fit(n resource.NodeID, book *resource.Calendar, earliest, dur, lft simtime.Time) (start, finish simtime.Time, ok bool) {
	b.evals++
	if book == nil {
		start = earliest
	} else {
		s, found := b.firstFree(n, book, earliest, dur, b.opt.horizon)
		if !found {
			return 0, 0, false
		}
		start = s
	}
	finish = start + dur
	if finish > lft {
		return 0, 0, false
	}
	return start, finish, true
}

// charge is the task's cost term ceil(V/T) at a load time of dur.
func (b *builder) charge(task dag.TaskID, dur simtime.Time) int64 {
	return economy.TaskCharge(b.taskVol[task], dur)
}

// chainEdge returns the index of the connecting edge between two
// consecutive chain tasks, preferring the cheapest transfer when parallel
// edges exist (the first of equals, in the job's order).
func (sc *scratch) chainEdge(from, to dag.TaskID) int {
	best := -1
	for _, e := range sc.outEdges(from) {
		if sc.edgeTo[e] == to && (best < 0 || sc.edgeBase[e] < sc.edgeBase[best]) {
			best = int(e)
		}
	}
	if best < 0 {
		panic("criticalworks: chain tasks not connected") // LongestChain guarantees connectivity
	}
	return best
}
