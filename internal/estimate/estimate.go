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
	"fmt"

	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/simtime"
)

// Row is one line of the estimation table: the per-tier time estimates and
// the computation volume of a single task.
type Row struct {
	Times  [resource.NumTiers]simtime.Time
	Volume int64
}

// Table is a job's complete estimation table. Task IDs are dense, so the
// rows live in a slice indexed by TaskID; a row is present when its tier-1
// time is positive.
type Table struct {
	rows    []Row
	derived *dag.Job // the job Derive built the table from
}

// Derive builds the canonical table from a job's base estimates the way the
// paper's Fig. 2 table is built: T_ik = k × T_i1, V from the task volume.
func Derive(job *dag.Job) *Table {
	t := &Table{rows: make([]Row, job.NumTasks()), derived: job}
	for i := range t.rows {
		task := job.Task(dag.TaskID(i))
		row := &t.rows[i]
		for k := 0; k < resource.NumTiers; k++ {
			row.Times[k] = task.BaseTime * simtime.Time(k+1)
		}
		row.Volume = task.Volume
	}
	return t
}

// DerivedFrom reports whether the table is exactly Derive(job): a
// deterministic function of the job that covers it by construction, so a
// build handed one need not check it row by row (CoversJob).
func (t *Table) DerivedFrom(job *dag.Job) bool { return t.derived == job }

// Has reports whether the table has a row for the task.
func (t *Table) Has(id dag.TaskID) bool {
	return id >= 0 && int(id) < len(t.rows) && t.rows[id].Times[0] > 0
}

// row returns the task's row. It panics when the task has none — the table
// must cover the whole job.
func (t *Table) row(id dag.TaskID) *Row {
	if !t.Has(id) {
		panic(fmt.Sprintf("estimate: no row for task %d", id))
	}
	return &t.rows[id]
}

// Time returns the user estimate for the task on a node of the given tier.
// It panics when the task has no row — the table must cover the whole job.
func (t *Table) Time(id dag.TaskID, tier resource.Tier) simtime.Time {
	row := t.row(id)
	if tier < 1 {
		tier = 1
	}
	if tier > resource.NumTiers {
		tier = resource.NumTiers
	}
	return row.Times[tier-1]
}

// TimeOnNode returns the user estimate applied to a concrete node: the
// estimate of the node's tier.
func (t *Table) TimeOnNode(id dag.TaskID, n *resource.Node) simtime.Time {
	return t.Time(id, n.Tier())
}

// Volume returns the task's computation volume V_i.
func (t *Table) Volume(id dag.TaskID) int64 {
	return t.row(id).Volume
}

// Best returns the fastest (tier-1) estimate for the task, the weight used
// when searching critical works.
func (t *Table) Best(id dag.TaskID) simtime.Time { return t.Time(id, 1) }

// CoversJob verifies that every task of the job has a row.
func (t *Table) CoversJob(job *dag.Job) error {
	for i := 0; i < job.NumTasks(); i++ {
		if !t.Has(dag.TaskID(i)) {
			return fmt.Errorf("estimate: table missing task %q", job.Task(dag.TaskID(i)).Name)
		}
	}
	return nil
}
