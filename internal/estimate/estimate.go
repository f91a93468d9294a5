// Package estimate models the user estimations of §3: for every task of a
// compound job, an execution-time estimate per processor-node type
// (T_i1..T_i4, tier 1 = fastest) and a relative computation volume V_i.
//
// Planning (strategy construction, reservations) always uses these
// tier-quantized user estimates; the actual execution time on a concrete
// node is derived from its continuous relative performance and generally
// differs, which is exactly the forecast error the paper studies in
// Fig. 4c ("actual solving time Ti for a task can be different from user
// estimation Tij").
package estimate

import (
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/simtime"
)

// Table is a job's estimation table, read off the job itself: the paper's
// Fig. 2 table is built as T_ik = k × T_i1 with V_i the task volume, so a
// row is a function of the task and the table stores none. It is a value
// the size of a pointer; a task ID outside the job panics.
type Table struct {
	job *dag.Job
}

// Derive returns the canonical table of a job's base estimates.
func Derive(job *dag.Job) Table { return Table{job: job} }

// Time returns the user estimate for the task on a node of the given tier:
// the task's base (tier-1) time times the tier, clamped to 1..NumTiers.
func (t Table) Time(id dag.TaskID, tier resource.Tier) simtime.Time {
	if tier < 1 {
		tier = 1
	}
	if tier > resource.NumTiers {
		tier = resource.NumTiers
	}
	return t.job.Task(id).BaseTime * simtime.Time(tier)
}

// TimeOnNode returns the user estimate applied to a concrete node: the
// estimate of the node's tier.
func (t Table) TimeOnNode(id dag.TaskID, n *resource.Node) simtime.Time {
	return t.Time(id, n.Tier())
}

// Volume returns the task's computation volume V_i.
func (t Table) Volume(id dag.TaskID) int64 { return t.job.Task(id).Volume }

// Best returns the fastest (tier-1) estimate for the task, the weight used
// when searching critical works.
func (t Table) Best(id dag.TaskID) simtime.Time { return t.job.Task(id).BaseTime }
