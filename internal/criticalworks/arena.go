package criticalworks

import (
	"fmt"
	"sync"

	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// builder is one build's state: its inputs, read in place — the job, the
// caller's view and the options — and everything a build makes and its
// result does not keep — the bounds, the chain searches, the DP table, the
// attempt's placements with their per-node overlay, its replica sets and the
// collisions it has recorded so far. A build borrows one from builderPool,
// resets it for its job, view and options, and runs its margin attempts in
// it one after another; what it returns is allocated fresh and never points
// here: a success's Schedule, its Placements and its Collisions, copied out
// at their exact length, or a failure's InfeasibleError, which copies out
// nothing but two counts. Build is a function, not a method of a long-lived
// owner, and builds run on several goroutines at once (experiments run jobs
// on parallel workers), so the state comes from a pool rather than a caller.
//
// An attempt is a what-if over the caller's view: it reads the view's books
// and writes nothing but its own placements, which firstFree, holder and
// reserve overlay on the book they query. A failed attempt is simply
// dropped.
type builder struct {
	// The build's inputs, never written: the job, whose edge runs the loops
	// read in place (inEdges, outEdges), the caller's view, one book per
	// node, and the normalized options.
	job  *dag.Job
	cals Calendars
	opt  Options

	// The job's deadline, the horizon calendar searches stop at (4× the
	// deadline span) and the span the margin attempts hang under.
	deadline, horizon simtime.Time
	parentSpan        telemetry.SpanID

	// The attempt in progress: the tasks it placed, its probes, the first
	// task of the chain placeChain failed at, and its span's ID, 0 when
	// tracing is off (per-chain and per-DP-phase spans hang under it).
	nPlaced int
	evals   int64
	failed  dag.TaskID
	span    telemetry.SpanID

	// The job's graph as the build's loops read it, filled once by reset:
	// each task's base time and volume, each edge's ends and base time.
	taskBase, edgeBase []simtime.Time
	taskVol            []int64
	edgeFrom, edgeTo   []dag.TaskID

	bestUp   []simtime.Time // earliest-start offset per task (margin-scaled)
	bestDown []simtime.Time // remaining time after task finish (margin-scaled)

	// The first critical work, found once and placed first by every margin:
	// its own slice, because every later search overwrites chains.
	first  []dag.TaskID
	chains dag.ChainBuf // the next-critical-work search and its result

	// tier is each candidate's estimation tier, by node, filled by reset.
	tier []resource.Tier

	dp     []cell      // runDP's table, chain positions × candidates
	cells  []cellIn    // what each dp cell reads of its (task, node) pair
	preds  []pred      // the dp row before the one runDP is filling, sorted
	ins    []link      // the placed inputs of the task prepareCells is on
	outs   []link      // and its placed outputs
	placed []Placement // the attempt's placements by TaskID; zero where none

	// The current critical work's two DP results, overwritten by every chain.
	ideal, actual []Placement

	// The attempt's overlay on the view it reads: its placements node by
	// node, as lists threaded through placed in the order of their starts.
	// ownHead[n] is 1 + the task whose placement on node n starts first,
	// ownNext[t] 1 + the task whose placement on t's node starts next after
	// t's, 0 ends a list.
	ownHead, ownNext []int32

	// The attempt's replica sets, a row of `words` uint64s per task: bit n of
	// row t says node n holds a copy of task t's output. A build only ever
	// places — and so only ever replicates — data products of its own job,
	// which the producing TaskID names.
	replica []uint64
	words   int

	// colls collects the attempt's collisions; room for all there can be (a
	// task sits in one chain, which records at most one collision for it).
	colls []Collision

	// fresh lists the tasks the attempt has reserved since it last committed
	// replicas (commitPlaced); room for every task.
	fresh []dag.TaskID
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

// reset points the state at a build of job over the view cals with the
// normalized options opt, grows what is too small for them, fills the tier
// table for the candidates and reads the job's graph tables. What the other
// slices hold is whatever the last build left: every one is cleared or
// overwritten before it is read (attempt, computeBounds, runDP, reserve);
// the DP's own buffers are grown where they are filled.
func (b *builder) reset(env *resource.Environment, cals Calendars, job *dag.Job, opt Options) {
	n, m, nodes := job.NumTasks(), job.NumEdges(), len(cals)
	b.job, b.cals, b.opt = job, cals, opt
	b.deadline = job.Deadline
	b.horizon = opt.Release + 4*(b.deadline-opt.Release)
	b.bestUp, b.bestDown = grow(b.bestUp, n), grow(b.bestDown, n)
	b.placed = grow(b.placed, n)
	b.ideal, b.actual = grow(b.ideal, n), grow(b.actual, n)
	b.ownHead, b.ownNext = grow(b.ownHead, nodes), grow(b.ownNext, n)
	b.tier = grow(b.tier, nodes)
	for _, c := range opt.Candidates {
		b.tier[c] = env.Node(c).Tier()
	}
	b.words = (nodes + 63) / 64
	b.replica = grow(b.replica, n*b.words)
	b.colls = grow(b.colls, n)
	b.fresh = grow(b.fresh, n)

	b.taskBase, b.taskVol = grow(b.taskBase, n), grow(b.taskVol, n)
	for t := range b.taskBase {
		task := job.Task(dag.TaskID(t))
		b.taskBase[t], b.taskVol[t] = task.BaseTime, task.Volume
	}
	b.edgeBase, b.edgeFrom, b.edgeTo = grow(b.edgeBase, m), grow(b.edgeFrom, m), grow(b.edgeTo, m)
	for i := range m {
		e := job.EdgeAt(i)
		b.edgeBase[i], b.edgeFrom[i], b.edgeTo[i] = e.BaseTime, e.From, e.To
	}
}

// inEdges and outEdges return task t's incoming and outgoing edges as edge
// indices, in the job's order: the job's own runs, read in place.
func (b *builder) inEdges(t dag.TaskID) []int32  { return b.job.InIdx(t) }
func (b *builder) outEdges(t dag.TaskID) []int32 { return b.job.OutIdx(t) }

// release returns the state holding nothing of the build it served: no job,
// no view and no options, so no context, candidates, registry or tracer — a
// pooled state outlives the engine event, and a view's calendars must not
// (liveBooks). Nothing else in it holds a pointer. The parent span goes too,
// because only Build sets it.
func (b *builder) release() {
	b.job, b.cals, b.opt, b.parentSpan = nil, nil, Options{}, 0
	builderPool.Put(b)
}

// grow returns s with length n, reallocated when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// attempt starts a margin's attempt: empty overlay, nothing placed, no
// replica anywhere, no collision recorded, no probe counted.
func (b *builder) attempt() {
	clear(b.placed)
	clear(b.ownHead)
	clear(b.replica)
	b.colls = b.colls[:0]
	b.fresh = b.fresh[:0]
	b.nPlaced, b.evals, b.failed, b.span = 0, 0, 0, 0
}

// placement returns task id's placement in this attempt, if it has one.
func (b *builder) placement(id dag.TaskID) (Placement, bool) {
	return b.placed[id], !b.placed[id].Window.Empty()
}

// placements copies the finished attempt's placements out of the state as a
// Schedule's table by TaskID.
func (b *builder) placements() []Placement {
	out := make([]Placement, len(b.placed))
	copy(out, b.placed)
	return out
}

// ownOverlap returns the attempt's earliest-starting placement on node n
// that overlaps iv. Own placements on a node are pairwise disjoint (reserve
// checks), so that is also the first one a merged book would report. Only
// node n's list is walked, in the order of the starts, which is also that
// of the ends: the first placement that ends after iv starts is the answer
// if it starts before iv ends, and no later one overlaps otherwise. A node
// the attempt has not reserved on costs one load, whatever the job's size.
func (b *builder) ownOverlap(n resource.NodeID, iv simtime.Interval) (Placement, bool) {
	for l := b.ownHead[n]; l != 0; l = b.ownNext[l-1] {
		if p := &b.placed[l-1]; p.Window.End > iv.Start {
			return *p, p.Window.Overlaps(iv)
		}
	}
	return Placement{}, false
}

// firstFree is Calendar.FirstFree on node n's book — base, the view's —
// merged with the attempt's own placements there, without building that
// book: ask base for its first free start t ≥ earliest, and while an own
// placement p overlaps [t, t+length), ask again from p.End.
//
// Why that is the merged book's answer. Every start in [earliest, t) is
// refused by the base book alone (FirstFree returns the minimum). Every
// start s in [t, p.End) overlaps p: s < p.End, and s+length ≥ t+length >
// p.Start because p overlaps [t, t+length). So the merged answer is ≥ p.End
// and the search resumes there; each pass retires one own placement. A t
// that no own placement overlaps is free in both books and, by the above,
// the first such start. The horizon test is the base call's, on a start
// the merged answer cannot precede.
func (b *builder) firstFree(n resource.NodeID, base *resource.Calendar, earliest, length, horizon simtime.Time) (simtime.Time, bool) {
	for {
		t, ok := base.FirstFree(earliest, length, horizon)
		if !ok {
			return 0, false
		}
		p, hit := b.ownOverlap(n, simtime.Interval{Start: t, End: t + length})
		if !hit {
			return t, true
		}
		earliest = p.Window.End
	}
}

// holder is Calendar.ConflictWith on the merged book, as a Collision names
// what it found: the earlier-starting of the base book's first overlap with
// iv, NoHolder, and the attempt's own, its task.
func (b *builder) holder(n resource.NodeID, iv simtime.Interval) (dag.TaskID, bool) {
	res, busy := b.cals[n].ConflictWith(iv)
	if p, hit := b.ownOverlap(n, iv); hit && (!busy || p.Window.Start < res.Interval.Start) {
		return p.Task, true
	}
	return NoHolder, busy
}

// owner labels the attempt's reservation for a task.
func (b *builder) owner(task dag.TaskID) resource.Owner {
	return resource.Owner{Job: b.opt.JobName, Task: b.job.Task(task).Name}
}

// reserve books p in the overlay, refusing what Calendar.Reserve would
// refuse on the merged book (either is an internal bug: the DP chose it).
func (b *builder) reserve(p Placement) error {
	if p.Window.Empty() {
		return fmt.Errorf("%w: %v", resource.ErrEmptyInterval, p.Window)
	}
	if h, busy := b.holder(p.Node, p.Window); busy {
		existing, _ := b.cals[p.Node].ConflictWith(p.Window)
		if h != NoHolder {
			existing = resource.Reservation{Interval: b.placed[h].Window, Owner: b.owner(h)}
		}
		return &resource.ErrConflict{Wanted: p.Window, Existing: existing}
	}
	link := &b.ownHead[p.Node]
	for *link != 0 && b.placed[*link-1].Window.Start < p.Window.Start {
		link = &b.ownNext[*link-1]
	}
	b.ownNext[p.Task], *link = *link, int32(p.Task)+1
	b.placed[p.Task] = p
	b.fresh = append(b.fresh, p.Task)
	b.nPlaced++
	return nil
}

// collisions copies the attempt's collisions out of the state at their exact
// length; nil when there are none.
func (b *builder) collisions() []Collision {
	if len(b.colls) == 0 {
		return nil
	}
	out := make([]Collision, len(b.colls))
	copy(out, b.colls)
	return out
}

// held reports whether node n holds a replica of producer's output.
func (b *builder) held(producer dag.TaskID, n resource.NodeID) bool {
	return b.replica[int(producer)*b.words+int(n)/64]>>(uint(n)%64)&1 != 0
}

// commit records that producer's output has been materialized at both ends of
// a transfer from → to (data.Catalog.Commit's rule).
func (b *builder) commit(producer dag.TaskID, from, to resource.NodeID) {
	row := b.replica[int(producer)*b.words:]
	row[int(from)/64] |= 1 << (uint(from) % 64)
	row[int(to)/64] |= 1 << (uint(to) % 64)
}

// commitPlaced commits the data placement of every edge whose two ends are
// placed, so later critical works of this job see the replicas. An edge
// placed at both ends before the tasks reserved since the last call was
// committed by that call, and committing is idempotent, so only the edges of
// those tasks are walked.
func (b *builder) commitPlaced() {
	for _, t := range b.fresh {
		for _, e := range b.inEdges(t) {
			b.commitEdge(e)
		}
		for _, e := range b.outEdges(t) {
			b.commitEdge(e)
		}
	}
	b.fresh = b.fresh[:0]
}

// commitEdge commits edge e's data placement if both its ends are placed.
func (b *builder) commitEdge(e int32) {
	src := b.edgeFrom[e]
	from, okF := b.placement(src)
	to, okT := b.placement(b.edgeTo[e])
	if okF && okT {
		b.commit(src, from.Node, to.Node)
	}
}
