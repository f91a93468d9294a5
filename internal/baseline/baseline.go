// Package baseline implements the classic list-scheduling heuristics the
// paper positions the critical works method against (§1 cites Braun et
// al.'s comparison of eleven static heuristics for heterogeneous systems
// [13]): Min-Min, Max-Min, Sufferage, and OLB, adapted from independent
// tasks to compound-job DAGs by restricting each selection round to the
// ready set (all predecessors placed).
//
// The heuristics run against the same substrates as the core method —
// estimation tables, reservation calendars, remote-access transfer times (S2's
// policy) — so the comparison isolates the allocation logic itself.
package baseline

import (
	"fmt"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/economy"
	"repro/internal/resource"
	"repro/internal/simtime"
)

// Heuristic selects the task-ordering rule.
type Heuristic int

// The implemented heuristics of the [13] family.
const (
	// MinMin repeatedly places the ready task with the smallest best
	// earliest-completion time.
	MinMin Heuristic = iota
	// MaxMin places the ready task with the LARGEST best completion time
	// first (big tasks claim good nodes early).
	MaxMin
	// Sufferage places the task that would suffer most from losing its
	// best node (largest second-best − best completion gap).
	Sufferage
	// OLB (opportunistic load balancing) assigns ready tasks in
	// deterministic order to the node that frees up earliest, ignoring
	// execution times.
	OLB
)

// Heuristics lists all implemented heuristics in presentation order.
var Heuristics = []Heuristic{MinMin, MaxMin, Sufferage, OLB}

// String names the heuristic as in the literature.
func (h Heuristic) String() string {
	switch h {
	case MinMin:
		return "min-min"
	case MaxMin:
		return "max-min"
	case Sufferage:
		return "sufferage"
	case OLB:
		return "olb"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// InfeasibleError reports that the heuristic could not place a task within
// the deadline.
type InfeasibleError struct {
	Job  string
	Task string
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("baseline: job %q: no feasible placement for task %q", e.Job, e.Task)
}

// Build schedules the whole job with the given heuristic against the
// calendar view (mutated in place; pass clones to keep the originals), on
// every node of env, from time 0 to the job's deadline, at the job's derived
// estimates, remote data access (every transfer takes its edge's base time)
// and the paper's cost function. The resulting Schedule is
// interface-compatible with the core method's.
func Build(env *resource.Environment, cals criticalworks.Calendars, job *dag.Job, h Heuristic) (*criticalworks.Schedule, error) {
	if job.Deadline <= 0 {
		return nil, &InfeasibleError{Job: job.Name, Task: job.Task(job.TopoOrder()[0]).Name}
	}
	if env.NumNodes() == 0 {
		return nil, criticalworks.ErrNoCandidates
	}
	b := &builder{env: env, cals: cals, job: job, h: h, horizon: 4 * job.Deadline,
		placed: make([]criticalworks.Placement, job.NumTasks())}
	return b.run()
}

type builder struct {
	env     *resource.Environment
	cals    criticalworks.Calendars
	job     *dag.Job
	h       Heuristic
	horizon simtime.Time // calendar searches stop at 4× the deadline

	placed  []criticalworks.Placement // by TaskID; an empty window where none yet
	nPlaced int
}

// candidate is one (task, node) placement option with its completion time.
type candidate struct {
	task   dag.TaskID
	node   resource.NodeID
	window simtime.Interval
}

func (b *builder) run() (*criticalworks.Schedule, error) {
	for b.nPlaced < b.job.NumTasks() {
		ready := b.readyTasks()
		pick, ok := b.selectNext(ready)
		if !ok {
			// Some ready task has no feasible slot.
			name := b.job.Task(ready[0]).Name
			return nil, &InfeasibleError{Job: b.job.Name, Task: name}
		}
		owner := resource.Owner{Job: b.job.Name, Task: b.job.Task(pick.task).Name}
		if err := b.cals[pick.node].Reserve(pick.window, owner); err != nil {
			return nil, fmt.Errorf("baseline: internal error: %w", err)
		}
		b.placed[pick.task] = criticalworks.Placement{Task: pick.task, Node: pick.node, Window: pick.window}
		b.nPlaced++
	}
	return b.assemble()
}

// readyTasks returns unplaced tasks whose predecessors are all placed, in
// deterministic ID order. At least one always exists in a DAG.
func (b *builder) readyTasks() []dag.TaskID {
	var out []dag.TaskID
	for _, id := range b.job.TopoOrder() {
		if !b.placed[id].Window.Empty() {
			continue
		}
		allIn := true
		for _, e := range b.job.In(id) {
			if b.placed[e.From].Window.Empty() {
				allIn = false
				break
			}
		}
		if allIn {
			out = append(out, id)
		}
	}
	return out
}

// selectNext applies the heuristic over the ready set.
func (b *builder) selectNext(ready []dag.TaskID) (candidate, bool) {
	type scored struct {
		best   candidate
		bestCT simtime.Time
		gap    simtime.Time // sufferage: second-best − best
		ok     bool
	}
	scores := make([]scored, len(ready))
	for i, id := range ready {
		best, second := simtime.Infinity, simtime.Infinity
		var bc candidate
		for n := range resource.NodeID(b.env.NumNodes()) {
			w, ok := b.earliestWindow(id, n)
			if !ok {
				continue
			}
			switch {
			case w.End < best:
				second = best
				best = w.End
				bc = candidate{task: id, node: n, window: w}
			case w.End < second:
				second = w.End
			}
		}
		scores[i] = scored{best: bc, bestCT: best, gap: second - best, ok: best < simtime.Infinity}
	}

	idx, found := -1, false
	switch b.h {
	case MinMin:
		for i, s := range scores {
			if s.ok && (!found || s.bestCT < scores[idx].bestCT) {
				idx, found = i, true
			}
		}
	case MaxMin:
		for i, s := range scores {
			if s.ok && (!found || s.bestCT > scores[idx].bestCT) {
				idx, found = i, true
			}
		}
	case Sufferage:
		for i, s := range scores {
			if s.ok && (!found || s.gap > scores[idx].gap) {
				idx, found = i, true
			}
		}
	case OLB:
		// First ready task in order, on the node that frees earliest.
		for i, id := range ready {
			if !scores[i].ok {
				continue
			}
			bestStart := simtime.Infinity
			var bc candidate
			for n := range resource.NodeID(b.env.NumNodes()) {
				w, ok := b.earliestWindow(id, n)
				if ok && w.Start < bestStart {
					bestStart = w.Start
					bc = candidate{task: id, node: n, window: w}
				}
			}
			return bc, true
		}
		return candidate{}, false
	}
	if !found {
		return candidate{}, false
	}
	return scores[idx].best, true
}

// earliestWindow computes the task's earliest feasible window on the node,
// honouring placed predecessors, transfers and the deadline.
func (b *builder) earliestWindow(id dag.TaskID, n resource.NodeID) (simtime.Interval, bool) {
	node := b.env.Node(n)
	dur := resource.Estimate(b.job.Task(id).BaseTime, node.Tier())
	if dur <= 0 {
		return simtime.Interval{}, false
	}
	var earliest simtime.Time
	for _, e := range b.job.In(id) {
		if t := b.placed[e.From].Window.End + e.BaseTime; t > earliest {
			earliest = t
		}
	}
	start, ok := b.cals[n].FirstFree(earliest, dur, b.horizon)
	if !ok {
		return simtime.Interval{}, false
	}
	w := simtime.Interval{Start: start, End: start + dur}
	if w.End > b.job.Deadline {
		return simtime.Interval{}, false
	}
	return w, true
}

// assemble prices the finished schedule.
func (b *builder) assemble() (*criticalworks.Schedule, error) {
	s := &criticalworks.Schedule{
		Job:        b.job,
		Placements: b.placed,
		Start:      simtime.Infinity,
	}
	for id, p := range b.placed {
		s.Cost += economy.TaskCharge(b.job.Task(dag.TaskID(id)).Volume, p.Window.Len())
		if p.Window.Start < s.Start {
			s.Start = p.Window.Start
		}
		if p.Window.End > s.Finish {
			s.Finish = p.Window.End
		}
	}
	// Precedence verification, as in the core method.
	for _, e := range b.job.Edges() {
		if b.placed[e.To].Window.Start < b.placed[e.From].Window.End+e.BaseTime {
			return nil, fmt.Errorf("baseline: internal error: edge %s violates precedence", e.Name)
		}
	}
	return s, nil
}
