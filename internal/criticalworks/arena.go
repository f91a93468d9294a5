package criticalworks

import (
	"fmt"
	"sync"

	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// scratch is a build's working memory: everything a build makes and its
// result does not keep — the bounds, the chain searches, the DP table, the
// attempt's placements with their per-node overlay, its replica sets and the
// collisions it has recorded so far. A build borrows one from scratchPool,
// sizes it for its job and environment, and runs its margin attempts in it
// one after another; what it returns is allocated fresh and never points
// here: a success's Schedule, its Placements and its Collisions, copied out
// at their exact length, or a failure's InfeasibleError, which copies out
// nothing but two counts. Build is a function, not a method of a long-lived
// owner, and builds run on several goroutines at once (experiments run jobs
// on parallel workers), so the arena comes from a pool rather than a caller.
type scratch struct {
	job *dag.Job

	// The job's graph as the build's loops read it, filled once by reset:
	// each task's base time and volume, each edge's ends and base time, and
	// each task's incoming and outgoing edges as edge indices in the job's
	// order — task t's at inIdx[inOff[t]:inOff[t+1]] and
	// outIdx[outOff[t]:outOff[t+1]].
	taskBase, edgeBase           []simtime.Time
	taskVol                      []int64
	edgeFrom, edgeTo             []dag.TaskID
	inOff, outOff, inIdx, outIdx []int32

	bestUp   []simtime.Time // earliest-start offset per task (margin-scaled)
	bestDown []simtime.Time // remaining time after task finish (margin-scaled)

	// The first critical work, found once and placed first by every margin:
	// its own slice, because every later search overwrites chains.
	first  []dag.TaskID
	chains dag.ChainBuf // the next-critical-work search and its result

	// The build's candidates as the DP reads them, by node: the node's
	// estimation tier and the view's book for it. view fills them for the
	// candidates once per build, before the first read; release clears the
	// books, which are the view's.
	tier   []resource.Tier
	book   []*resource.Calendar
	viewed bool

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

	bld builder // the attempt in progress
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// takeScratch borrows an arena for one build of job over nodes nodes.
func takeScratch(job *dag.Job, nodes int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.reset(job, nodes)
	return sc
}

// reset points the arena at job, grows what is too small for it and reads
// the job's graph into it. What the other slices hold is whatever the last
// build left: every one is cleared or overwritten before it is read
// (attempt, view, computeBounds, runDP, reserve); the DP's own buffers are
// grown where they are filled.
func (sc *scratch) reset(job *dag.Job, nodes int) {
	n, m := job.NumTasks(), job.NumEdges()
	sc.job = job
	sc.bestUp, sc.bestDown = grow(sc.bestUp, n), grow(sc.bestDown, n)
	sc.placed = grow(sc.placed, n)
	sc.ideal, sc.actual = grow(sc.ideal, n), grow(sc.actual, n)
	sc.ownHead, sc.ownNext = grow(sc.ownHead, nodes), grow(sc.ownNext, n)
	sc.tier, sc.book = grow(sc.tier, nodes), grow(sc.book, nodes)
	sc.viewed = false
	sc.words = (nodes + 63) / 64
	sc.replica = grow(sc.replica, n*sc.words)
	sc.colls = grow(sc.colls, n)
	sc.fresh = grow(sc.fresh, n)

	sc.taskBase, sc.taskVol = grow(sc.taskBase, n), grow(sc.taskVol, n)
	for t := range sc.taskBase {
		task := job.Task(dag.TaskID(t))
		sc.taskBase[t], sc.taskVol[t] = task.BaseTime, task.Volume
	}
	sc.edgeBase, sc.edgeFrom, sc.edgeTo = grow(sc.edgeBase, m), grow(sc.edgeFrom, m), grow(sc.edgeTo, m)
	sc.inOff, sc.outOff = grow(sc.inOff, n+1), grow(sc.outOff, n+1)
	clear(sc.inOff)
	clear(sc.outOff)
	for i := range m {
		e := job.EdgeAt(i)
		sc.edgeBase[i], sc.edgeFrom[i], sc.edgeTo[i] = e.BaseTime, e.From, e.To
		sc.inOff[e.To+1]++
		sc.outOff[e.From+1]++
	}
	for t := range n {
		sc.inOff[t+1] += sc.inOff[t]
		sc.outOff[t+1] += sc.outOff[t]
	}
	// Fill each run in edge order, the job's own, with the run's start as a
	// cursor, then shift the cursors back to the starts.
	sc.inIdx, sc.outIdx = grow(sc.inIdx, m), grow(sc.outIdx, m)
	for i := range m {
		to, from := sc.edgeTo[i], sc.edgeFrom[i]
		sc.inIdx[sc.inOff[to]], sc.outIdx[sc.outOff[from]] = int32(i), int32(i)
		sc.inOff[to]++
		sc.outOff[from]++
	}
	copy(sc.inOff[1:], sc.inOff[:n])
	copy(sc.outOff[1:], sc.outOff[:n])
	sc.inOff[0], sc.outOff[0] = 0, 0
}

// view fills the candidate table for a build over cals on the candidates
// cands, unless this build has filled it already.
func (sc *scratch) view(env *resource.Environment, cals Calendars, cands []resource.NodeID) {
	if sc.viewed {
		return
	}
	for _, n := range cands {
		sc.tier[n], sc.book[n] = env.Node(n).Tier(), cals[n]
	}
	sc.viewed = true
}

// inEdges and outEdges return task t's incoming and outgoing edges as edge
// indices, in the job's order.
func (sc *scratch) inEdges(t dag.TaskID) []int32  { return sc.inIdx[sc.inOff[t]:sc.inOff[t+1]] }
func (sc *scratch) outEdges(t dag.TaskID) []int32 { return sc.outIdx[sc.outOff[t]:sc.outOff[t+1]] }

// release returns the arena holding nothing of the build it served: no job,
// no book of the view, and with the builder no view, options or context — a
// pooled arena outlives the engine event, and a view's calendars must not
// (liveBooks). Nothing else in the arena holds a pointer.
func (sc *scratch) release() {
	sc.job = nil
	clear(sc.book)
	sc.bld = builder{}
	scratchPool.Put(sc)
}

// grow returns s with length n, reallocated when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// builder carries one Build attempt's state. The attempt is a what-if over
// the caller's view: it reads the view's books and writes nothing but its
// own placements, which firstFree, holder and reserve overlay on the
// book they query. A failed attempt is simply dropped.
type builder struct {
	// The environment and the caller's view, never written, map or
	// calendars. The build reads them through the candidate table (view);
	// the reference DP the tests hold it to reads them here.
	env  *resource.Environment
	base Calendars

	opt    Options
	margin float64 // serialization margin scaling the bounds

	nPlaced int // tasks placed
	evals   int64
	failed  dag.TaskID // the first task of the chain placeChain failed at

	// span is the enclosing margin attempt's span ID; 0 when tracing is
	// off (per-chain and per-DP-phase spans hang under it).
	span telemetry.SpanID

	*scratch
}

// attempt starts a margin's attempt in the arena: empty overlay, nothing
// placed, no replica anywhere, no collision recorded.
func (sc *scratch) attempt(env *resource.Environment, cals Calendars, opt Options, margin float64) *builder {
	clear(sc.placed)
	clear(sc.ownHead)
	clear(sc.replica)
	sc.colls = sc.colls[:0]
	sc.fresh = sc.fresh[:0]
	sc.view(env, cals, opt.Candidates)
	sc.bld = builder{env: env, base: cals, opt: opt, margin: margin, scratch: sc}
	return &sc.bld
}

// placement returns task id's placement in this attempt, if it has one.
func (b *builder) placement(id dag.TaskID) (Placement, bool) {
	return b.placed[id], !b.placed[id].Window.Empty()
}

// placements copies the finished attempt's placements out of the arena as a
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
	res, busy := b.book[n].ConflictWith(iv)
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
		existing, _ := b.book[p.Node].ConflictWith(p.Window)
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

// collisions copies the attempt's collisions out of the arena at their exact
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
