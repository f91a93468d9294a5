package criticalworks

import (
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
// the actual reservations in the overlay.
func (b *builder) placeChain(chain dag.Chain) error {
	var chainSpan *telemetry.Span
	if b.opt.Spans != nil {
		evals0 := b.evals
		chainSpan = b.opt.Spans.Start("criticalworks.chain", b.span)
		chainSpan.SetInt("tasks", int64(len(chain.Tasks)))
		defer func() { chainSpan.SetInt("evaluations", b.evals-evals0).End() }()
	}

	ideal, ok := b.dpPhase(chainSpan, "ideal", chain, true)
	if !ok {
		return &InfeasibleError{Job: b.opt.JobName, Task: b.job.Task(chain.Tasks[0]).Name}
	}
	if err := b.cancelled(); err != nil {
		return err
	}

	var actual []Placement
	switch b.opt.Mode {
	case ResolveDelay:
		actual, ok = b.delayOnIdealNodes(chain, ideal)
	default:
		actual, ok = b.dpPhase(chainSpan, "actual", chain, false)
	}
	if !ok {
		return &InfeasibleError{Job: b.opt.JobName, Task: b.job.Task(chain.Tasks[0]).Name}
	}

	// A collision is an ideal slot that the calendar view cannot grant.
	for _, p := range ideal {
		if res, busy := b.conflictWith(p.Node, p.Window); busy {
			b.colls = append(b.colls, Collision{
				Task:   p.Task,
				Node:   p.Node,
				Window: p.Window,
				Holder: res.Owner,
			})
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

// dpPhase runs one DP pass under a span when tracing is on; with tracing
// off it is exactly runDP.
func (b *builder) dpPhase(parent *telemetry.Span, phase string, chain dag.Chain, ignoreCalendar bool) ([]Placement, bool) {
	if b.opt.Spans == nil {
		return b.runDP(chain, ignoreCalendar)
	}
	sp := b.opt.Spans.Start("criticalworks.dp", parent.ID())
	sp.SetStr("phase", phase)
	out, ok := b.runDP(chain, ignoreCalendar)
	if !ok {
		sp.SetStr("result", "infeasible")
	}
	sp.End()
	return out, ok
}

// cell is one DP state: the best (cost, finish) for "chain prefix ending
// with position i on node cands[c]".
type cell struct {
	ok            bool
	cost          float64
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

// runDP finds the cost-minimal feasible placement of the chain. With
// ignoreCalendar the search pretends every node is free (the "ideal"
// attempt); otherwise starts come from the calendar view. The result lives
// in the scratch's ideal or actual buffer until the next chain's same phase.
func (b *builder) runDP(chain dag.Chain, ignoreCalendar bool) ([]Placement, bool) {
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
			inBase = b.chainEdge(chain.Tasks[i-1], task).BaseTime
			prevRow = dp[(i-1)*C : i*C]
		}
		for c, n := range cands {
			node := b.env.Node(n)
			dur := b.opt.Table.TimeOnNode(task, node)
			if dur <= 0 {
				continue
			}
			// Functions of (task, n) alone: once per cell, not per predecessor.
			est, lft, charge := b.est(task, n), b.lft(task, n), b.charge(task, dur, node)
			var book *resource.Calendar // stays nil in the ideal phase
			if !ignoreCalendar {
				book = b.base[n]
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

// delayOnIdealNodes is the E8 ablation baseline: keep every task on its
// ideal node and only push it later until the calendar has room.
func (b *builder) delayOnIdealNodes(chain dag.Chain, ideal []Placement) ([]Placement, bool) {
	out := b.actual[:len(ideal)]
	var prevFinish simtime.Time
	var prevNode resource.NodeID
	for i, p := range ideal {
		task := p.Task
		n := p.Node
		node := b.env.Node(n)
		dur := b.opt.Table.TimeOnNode(task, node)
		earliest := b.est(task, n)
		if i > 0 {
			e := b.chainEdge(chain.Tasks[i-1], task)
			if t := prevFinish + b.transferTime(e, prevNode, n); t > earliest {
				earliest = t
			}
		}
		st, fin, ok := b.fit(n, b.base[n], earliest, dur, b.lft(task, n))
		if !ok {
			return nil, false
		}
		out[i] = Placement{Task: task, Node: n, Window: simtime.Interval{Start: st, End: fin}}
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
		s, found := b.firstFree(n, book, earliest, dur, b.opt.Horizon)
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

// charge is the per-task economic cost on a node.
func (b *builder) charge(task dag.TaskID, dur simtime.Time, node *resource.Node) float64 {
	return economy.WeightedTaskCharge(b.opt.Table.Volume(task), dur, b.opt.Pricing.Rate(node))
}

// est returns the earliest start of task on node n: the release time, the
// optimistic upstream bound, and the hard constraints from already-placed
// predecessors.
func (b *builder) est(task dag.TaskID, n resource.NodeID) simtime.Time {
	t := b.opt.Release + b.bestUp[task]
	b.adj = b.job.AppendIn(b.adj[:0], task)
	for _, e := range b.adj {
		p, ok := b.placement(e.From)
		if !ok {
			continue
		}
		if cand := p.Window.End + b.transferTime(e, p.Node, n); cand > t {
			t = cand
		}
	}
	return t
}

// lft returns the latest finish of task on node n: the deadline tightened
// by the optimistic downstream bound and by already-placed successors.
func (b *builder) lft(task dag.TaskID, n resource.NodeID) simtime.Time {
	t := b.opt.Deadline - b.bestDown[task]
	b.adj = b.job.AppendOut(b.adj[:0], task)
	for _, e := range b.adj {
		s, ok := b.placement(e.To)
		if !ok {
			continue
		}
		if cand := s.Window.Start - b.transferTime(e, n, s.Node); cand < t {
			t = cand
		}
	}
	return t
}

// chainEdge returns the connecting edge between two consecutive chain
// tasks, preferring the cheapest transfer when parallel edges exist.
func (sc *scratch) chainEdge(from, to dag.TaskID) dag.Edge {
	var best dag.Edge
	found := false
	sc.adj = sc.job.AppendOut(sc.adj[:0], from)
	for _, e := range sc.adj {
		if e.To != to {
			continue
		}
		if !found || e.BaseTime < best.BaseTime {
			best = e
			found = true
		}
	}
	if !found {
		panic("criticalworks: chain tasks not connected") // LongestChain guarantees connectivity
	}
	return best
}
