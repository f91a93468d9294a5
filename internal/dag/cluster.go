package dag

import "fmt"

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
	n, m := j.dims()
	link, w := j.link(), j.w
	// Working memory, cut from one pooled list: per task its macro task and
	// the members in run order, per run its offsets, fill cursors and list
	// head, per coarse edge three links and per edge one.
	buf := buildBufs.Get().(*[]int32)
	defer buildBufs.Put(buf)
	if need := 5*n + 1 + 4*m; cap(*buf) < need {
		*buf = make([]int32, need)
	}
	ints := (*buf)[:cap(*buf)]
	cut := func(k int) []int32 {
		part := ints[:k:k]
		ints = ints[k:]
		return part
	}

	// A task joins the run of its predecessor when it has no other and is
	// that predecessor's only successor; any other task starts a run. Runs
	// are the macro tasks, numbered in topological order of their first
	// task — which a walk in that order meets before the rest of the run.
	macro := cut(n)
	runs := int32(0)
	for _, t := range j.topo() {
		if in := j.InIdx(TaskID(t)); len(in) == 1 {
			if pred := link[2*int(in[0])]; len(j.OutIdx(TaskID(pred))) == 1 {
				macro[t] = macro[pred]
				continue
			}
		}
		macro[t] = runs
		runs++
	}
	// Members per run, in topological order — along the run — cut from one
	// list: run k's are members[off[k]:off[k+1]].
	members, off, fill := cut(n), cut(int(runs)+1), cut(int(runs))
	clear(off)
	clear(fill)
	for _, k := range macro {
		off[k+1]++
	}
	for k := range runs {
		off[k+1] += off[k]
	}
	for _, t := range j.topo() {
		k := macro[t]
		members[off[k]+fill[k]] = t
		fill[k]++
	}

	b := NewBuilder(j.Name+"/coarse").Deadline(j.Deadline).Grow(int(runs), m-(n-int(runs)))
	for k := range runs {
		run := members[off[k]:off[k+1]]
		var bt, vol int64
		// A macro task serializes its members AND their internal data
		// handoffs: coarse granularity hides the pipeline from the
		// scheduler, but the stage-to-stage data movement still takes
		// wall time inside the block (under S3's static storage the data
		// still stages through the storage node between stages).
		for i, id := range run {
			bt += w[2*int(id)]
			vol += w[2*int(id)+1]
			if i > 0 {
				bt += w[2*(n+int(j.InIdx(TaskID(id))[0]))] // its one incoming edge, from run[i-1]
			}
		}
		b.Task(j.name(int(run[0])), bt, vol)
		if len(run) > 1 {
			b.s.extendTask(len(run) - 1)
		}
	}
	// Re-create edges whose endpoints land in different macro tasks, in
	// order of first appearance. Multiple original edges between the same
	// macro pair merge into one: head[k] is 1 + the coarse edge created last
	// out of macro task k and next[c] 1 + the one created out of c's source
	// before c; first[c] and last[c] are the first and last edge merged into
	// c, and chain[e] is 1 + the edge merged after e. 0 ends a list.
	head, first, last, next, chain := cut(int(runs)), cut(m), cut(m), cut(m), cut(m)
	clear(head)
	coarse := int32(0)
edges:
	for e := range int32(m) {
		mf, mt := macro[link[2*int(e)]], macro[link[2*int(e)+1]]
		if mf == mt {
			continue
		}
		chain[e] = 0
		for c := head[mf]; c != 0; c = next[c-1] {
			if macro[link[2*int(first[c-1])+1]] == mt {
				chain[last[c-1]], last[c-1] = e+1, e
				continue edges
			}
		}
		first[coarse], last[coarse], next[coarse], head[mf] = e, e, head[mf], coarse+1
		coarse++
	}
	for c := range coarse {
		e := first[c]
		var bt, vol int64
		for x := e + 1; x != 0; x = chain[x-1] {
			bt += w[2*(n+int(x-1))]
			vol += w[2*(n+int(x-1))+1]
		}
		b.Link(j.name(n+int(e)), TaskID(macro[link[2*int(e)]]), TaskID(macro[link[2*int(e)+1]]), bt, vol)
		for x := chain[e]; x != 0; x = chain[x-1] {
			b.s.extendEdge(j.name(n + int(x-1)))
		}
	}
	cj, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("dag: coarsen %q: %w", j.Name, err)
	}
	return cj, nil
}
