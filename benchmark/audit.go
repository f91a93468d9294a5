package main

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/simtime"
)

// The audit is the benchmark's correctness check: every violation it finds
// is one more `failed`. It restates the paper-level invariants against the
// program's outputs only (JobResult records and live calendars), never
// against its internals.

// auditCalendars checks that every node's live reservation book is sorted
// and pairwise disjoint.
func auditCalendars(env *resource.Environment, res *repeatResult) {
	for _, n := range env.Nodes() {
		var prev simtime.Interval
		for i, r := range n.Calendar().Reservations() {
			if r.Interval.End <= r.Interval.Start {
				res.fail("audit: %s holds an empty reservation %v", n.Name, r.Interval)
			}
			if i > 0 && r.Interval.Start < prev.End {
				res.fail("audit: %s reservations overlap: %v then %v", n.Name, prev, r.Interval)
			}
			prev = r.Interval
		}
	}
}

// auditResults checks every completed job: one placement per scheduled
// task, inside [arrival, deadline], DAG precedence with the data policy's
// transfer lag on every edge, and no two executed windows sharing a node
// tick — within the job and across all completed jobs.
func auditResults(env *resource.Environment, results []*metasched.JobResult, res *repeatResult) {
	type window struct {
		iv  simtime.Interval
		job string
	}
	byNode := map[resource.NodeID][]window{}
	for _, r := range results {
		if r.State != metasched.StateCompleted {
			continue
		}
		name := r.Job.Name
		if r.Finish > r.Job.Deadline {
			res.fail("audit: %s completed at %d past its deadline %d", name, r.Finish, r.Job.Deadline)
		}
		sched := r.Scheduled
		if sched == nil || len(r.Placements) != sched.NumTasks() {
			res.fail("audit: %s has %d placements for its scheduled DAG", name, len(r.Placements))
			continue
		}
		var last simtime.Time
		for _, p := range r.Placements {
			if p.Window.End <= p.Window.Start || p.Window.Start < r.Arrival || int(p.Node) >= env.NumNodes() {
				res.fail("audit: %s task %d has a bad window %v on node %d", name, p.Task, p.Window, p.Node)
			}
			if p.Window.End > last {
				last = p.Window.End
			}
			byNode[p.Node] = append(byNode[p.Node], window{p.Window, name})
		}
		if last != r.Finish {
			res.fail("audit: %s finish %d is not its last window end %d", name, r.Finish, last)
		}
		lag := lagBound(env, r)
		for _, e := range sched.Edges() {
			from, to := r.Placements[e.From], r.Placements[e.To]
			if need := from.Window.End + lag(sched, e, from.Node, to.Node); to.Window.Start < need {
				res.fail("audit: %s edge %s starts its consumer at %d, before %d", name, e.Name, to.Window.Start, need)
			}
		}
	}
	for node, ws := range byNode {
		sort.Slice(ws, func(a, b int) bool { return ws[a].iv.Start < ws[b].iv.Start })
		for i := 1; i < len(ws); i++ {
			if ws[i].iv.Start < ws[i-1].iv.End {
				res.fail("audit: node %d ran %s %v and %s %v at once", node, ws[i-1].job, ws[i-1].iv, ws[i].job, ws[i].iv)
			}
		}
	}
}

// lagBound returns the least transfer lag the job's data policy allows on
// an edge given where producer and consumer ran. Remote access and static
// storage price a transfer from the two nodes alone. Active replication
// (S1, MS1) waives the copy when a replica is already at the consumer's
// node, which the scheduler decides in its own construction order; the
// audit accepts 0 exactly when some other transfer of the same dataset
// could have put a replica there, so it never flags a correct plan.
func lagBound(env *resource.Environment, r *metasched.JobResult) func(*dag.Job, dag.Edge, resource.NodeID, resource.NodeID) simtime.Time {
	policy := r.Type.DataPolicy()
	// Each domain's generator stores static data on the first node of its pool.
	storage := env.ByDomain(r.Domain)[0].ID
	cat := data.NewCatalog(policy, storage)
	return func(job *dag.Job, e dag.Edge, from, to resource.NodeID) simtime.Time {
		if policy == data.ActiveReplication {
			for _, other := range job.Out(e.From) {
				if other.To == e.To {
					continue
				}
				if to == from || r.Placements[other.To].Node == to {
					return 0
				}
			}
		}
		return cat.TransferTime(r.Job.Name, job.Task(e.From).Name, e.BaseTime, from, to)
	}
}
