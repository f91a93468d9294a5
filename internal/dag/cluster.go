package dag

import (
	"fmt"

	"repro/internal/simtime"
)

// Coarsen builds the chain clustering of j: a new Job whose tasks are merged
// linear runs of j's tasks. The deadline carries over.
//
// Coarse-grain strategies (the paper's S3 family) schedule fewer, larger
// tasks: every maximal linear run — consecutive tasks where each has exactly
// one successor and the next has exactly one predecessor — collapses into a
// single macro-task whose base time is the run's serial execution time plus
// the in-run transfer times, and whose volume is the sum of run volumes.
// Transfers internal to a run disappear (the data never leaves the node). A
// macro task is named after the run's first task, with "+k" for a run of
// k+1 tasks.
func Coarsen(j *Job) (*Job, error) {
	n, m := len(j.tasks), len(j.edges)
	// A task joins the run of its predecessor when it has no other and is
	// that predecessor's only successor; any other task starts a run. Runs
	// are the macro tasks, numbered in topological order of their first
	// task — which a walk in that order meets before the rest of the run.
	macro := make([]TaskID, n)
	runs := 0
	for _, t := range j.topo() {
		if in := j.in(TaskID(t)); len(in) == 1 {
			if pred := j.edges[in[0]].From; len(j.out(pred)) == 1 {
				macro[t] = macro[pred]
				continue
			}
		}
		macro[t] = TaskID(runs)
		runs++
	}
	// Members per run, in topological order — along the run — cut from one
	// list: run k's are members[off[k]:off[k+1]].
	ints := make([]int32, 3*runs+1+m)
	off, fill, ints := ints[:runs+1], ints[runs+1:2*runs+1], ints[2*runs+1:]
	for _, k := range macro {
		off[k+1]++
	}
	for k := 0; k < runs; k++ {
		off[k+1] += off[k]
	}
	members := make([]TaskID, n)
	for _, t := range j.topo() {
		k := macro[t]
		members[off[k]+fill[k]] = TaskID(t)
		fill[k]++
	}

	b := NewBuilder(j.Name+"/coarse").Deadline(j.Deadline).Grow(runs, 0)
	for k := 0; k < runs; k++ {
		run := members[off[k]:off[k+1]]
		var bt simtime.Time
		var vol int64
		// A macro task serializes its members AND their internal data
		// handoffs: coarse granularity hides the pipeline from the
		// scheduler, but the stage-to-stage data movement still takes
		// wall time inside the block (under S3's static storage the data
		// still stages through the storage node between stages).
		for i, id := range run {
			t := j.tasks[id]
			bt += t.BaseTime
			vol += t.Volume
			if i > 0 {
				bt += j.edges[j.in(id)[0]].BaseTime // its one incoming edge, from run[i-1]
			}
		}
		name := j.tasks[run[0]].Name
		if len(run) > 1 {
			name = fmt.Sprintf("%s+%d", name, len(run)-1)
		}
		b.Task(name, bt, vol)
	}
	// Re-create edges whose endpoints land in different macro tasks, in
	// order of first appearance. Multiple original edges between the same
	// macro pair accumulate: head[k] is 1 + the coarse edge created last
	// out of macro task k, next[c] 1 + the one created out of c's source
	// before c, 0 ends a list.
	head, next := ints[:runs], ints[runs:]
	coarse := make([]Edge, 0, m-(n-runs)) // every task that joined a run took its one incoming edge inside
edges:
	for _, e := range j.edges {
		mf, mt := macro[e.From], macro[e.To]
		if mf == mt {
			continue
		}
		for l := head[mf]; l != 0; l = next[l-1] {
			if a := &coarse[l-1]; a.To == mt {
				a.BaseTime += e.BaseTime
				a.Volume += e.Volume
				a.Name += "+" + e.Name
				continue edges
			}
		}
		next[len(coarse)], head[mf] = head[mf], int32(len(coarse))+1
		e.From, e.To = mf, mt
		coarse = append(coarse, e)
	}
	b.edges = coarse
	cj, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("dag: coarsen %q: %w", j.Name, err)
	}
	return cj, nil
}
