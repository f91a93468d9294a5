// Package baseline implements the classic list-scheduling heuristics the
// paper positions the critical works method against (§1 cites Braun et
// al.'s comparison of eleven static heuristics for heterogeneous systems
// [13]): Min-Min, Max-Min, Sufferage, and OLB, adapted from independent
// tasks to compound-job DAGs by restricting each selection round to the
// ready set (all predecessors placed).
//
// The heuristics run against the same substrates as the core method —
// estimation tables, reservation calendars, data-policy transfer times —
// so the comparison isolates the allocation logic itself.
package baseline

import (
	"fmt"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/economy"
	"repro/internal/estimate"
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

// Options mirrors criticalworks.Options for the shared substrates.
type Options struct {
	JobName    string
	Table      *estimate.Table
	Catalog    *data.Catalog
	Pricing    economy.Pricing
	Candidates []resource.NodeID
	Release    simtime.Time
	Deadline   simtime.Time
	Horizon    simtime.Time
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
// calendar view (mutated in place; pass clones to keep the originals).
// The resulting Schedule is interface-compatible with the core method's.
func Build(env *resource.Environment, cals criticalworks.Calendars, job *dag.Job, h Heuristic, opt Options) (*criticalworks.Schedule, error) {
	if opt.JobName == "" {
		opt.JobName = job.Name
	}
	if opt.Table == nil {
		opt.Table = estimate.Derive(job)
	}
	if err := opt.Table.CoversJob(job); err != nil {
		return nil, err
	}
	if opt.Catalog == nil {
		opt.Catalog = data.NewCatalog(data.RemoteAccess, 0)
	}
	if opt.Pricing == nil {
		opt.Pricing = economy.FlatPricing{PerTick: 1}
	}
	if opt.Deadline == 0 {
		opt.Deadline = job.Deadline
	}
	if opt.Deadline <= opt.Release {
		return nil, &InfeasibleError{Job: opt.JobName, Task: job.Task(job.TopoOrder()[0]).Name}
	}
	if opt.Horizon == 0 {
		opt.Horizon = opt.Release + 4*(opt.Deadline-opt.Release)
	}
	if opt.Candidates == nil {
		opt.Candidates = make([]resource.NodeID, env.NumNodes())
		for i := range opt.Candidates {
			opt.Candidates[i] = resource.NodeID(i)
		}
	}
	if len(opt.Candidates) == 0 {
		return nil, criticalworks.ErrNoCandidates
	}

	b := &builder{env: env, cals: cals, job: job, h: h, opt: opt,
		placed: make(map[dag.TaskID]criticalworks.Placement, job.NumTasks())}
	return b.run()
}

type builder struct {
	env  *resource.Environment
	cals criticalworks.Calendars
	job  *dag.Job
	h    Heuristic
	opt  Options

	placed map[dag.TaskID]criticalworks.Placement
}

// candidate is one (task, node) placement option with its completion time.
type candidate struct {
	task   dag.TaskID
	node   resource.NodeID
	window simtime.Interval
}

func (b *builder) run() (*criticalworks.Schedule, error) {
	for len(b.placed) < b.job.NumTasks() {
		ready := b.readyTasks()
		pick, ok := b.selectNext(ready)
		if !ok {
			// Some ready task has no feasible slot.
			name := b.job.Task(ready[0]).Name
			return nil, &InfeasibleError{Job: b.opt.JobName, Task: name}
		}
		owner := resource.Owner{Job: b.opt.JobName, Task: b.job.Task(pick.task).Name}
		if err := b.cals[pick.node].Reserve(pick.window, owner); err != nil {
			return nil, fmt.Errorf("baseline: internal error: %w", err)
		}
		b.placed[pick.task] = criticalworks.Placement{Task: pick.task, Node: pick.node, Window: pick.window}
		for _, e := range b.job.In(pick.task) {
			b.opt.Catalog.Commit(b.opt.JobName, b.job.Task(e.From).Name, b.placed[e.From].Node, pick.node)
		}
	}
	return b.assemble()
}

// readyTasks returns unplaced tasks whose predecessors are all placed, in
// deterministic ID order. At least one always exists in a DAG.
func (b *builder) readyTasks() []dag.TaskID {
	var out []dag.TaskID
	for _, id := range b.job.TopoOrder() {
		if _, done := b.placed[id]; done {
			continue
		}
		allIn := true
		for _, e := range b.job.In(id) {
			if _, done := b.placed[e.From]; !done {
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
		for _, n := range b.opt.Candidates {
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
			for _, n := range b.opt.Candidates {
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
	dur := b.opt.Table.TimeOnNode(id, node)
	if dur <= 0 {
		return simtime.Interval{}, false
	}
	earliest := b.opt.Release
	for _, e := range b.job.In(id) {
		p := b.placed[e.From]
		tt := b.opt.Catalog.TransferTime(b.opt.JobName, b.job.Task(e.From).Name, e.BaseTime, p.Node, n)
		if t := p.Window.End + tt; t > earliest {
			earliest = t
		}
	}
	start, ok := b.cals[n].FirstFree(earliest, dur, b.opt.Horizon)
	if !ok {
		return simtime.Interval{}, false
	}
	w := simtime.Interval{Start: start, End: start + dur}
	if w.End > b.opt.Deadline {
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
	// In task-ID order: the float charges must sum the same way every run.
	for i := 0; i < b.job.NumTasks(); i++ {
		id := dag.TaskID(i)
		p, ok := b.placed[id]
		if !ok {
			continue
		}
		dur := p.Window.Len()
		vol := b.opt.Table.Volume(id)
		s.BareCF += economy.TaskCharge(vol, dur)
		s.Cost += economy.WeightedTaskCharge(vol, dur, b.opt.Pricing.Rate(b.env.Node(p.Node)))
		if p.Window.Start < s.Start {
			s.Start = p.Window.Start
		}
		if p.Window.End > s.Finish {
			s.Finish = p.Window.End
		}
	}
	// Precedence verification, as in the core method.
	for _, e := range b.job.Edges() {
		from, to := b.placed[e.From], b.placed[e.To]
		tt := b.opt.Catalog.TransferTime(b.opt.JobName, b.job.Task(e.From).Name, e.BaseTime, from.Node, to.Node)
		if to.Window.Start < from.Window.End+tt {
			return nil, fmt.Errorf("baseline: internal error: edge %s violates precedence", e.Name)
		}
	}
	return s, nil
}
