// Package dag models compound jobs as directed acyclic graphs of tasks
// connected by data-transfer edges, following §3 of Toporkov (PaCT 2009):
// vertices P1..PN are tasks, D1..DM are data transfers. The package provides
// validation, topological ordering, chain (critical-work) enumeration and
// the chain clustering used by coarse-grain strategies.
package dag

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/simtime"
)

// TaskID identifies a task inside one Job; IDs are dense indices 0..N-1.
type TaskID int

// Task is a single unit of computation. BaseTime is the user's execution
// time estimate on a reference (fastest, type-1) node; Volume is the
// relative computation volume V_i used by the cost function CF.
type Task struct {
	ID       TaskID
	Name     string
	BaseTime simtime.Time
	Volume   int64
}

// Edge is a data transfer between two tasks. BaseTime is the transfer time
// between two distinct nodes under the neutral (remote-access) data policy;
// Volume is the transferred data volume.
type Edge struct {
	Name     string
	From, To TaskID
	BaseTime simtime.Time
	Volume   int64
}

// Job is an immutable compound job: a validated DAG of tasks and transfers
// with a required completion deadline (the paper's "fixed completion time").
// The graph sits behind a pointer that every copy of the job shares: a Job
// is its name, its deadline and that pointer, 32 bytes, so WithDeadline
// copies those and nothing of the graph.
type Job struct {
	Name     string
	Deadline simtime.Time

	*graph
}

// graph is a job's immutable structure in three flat parts, of which only
// names holds a pointer, so a retained graph is three objects the garbage
// collector never scans into. For n tasks and m edges:
//
//	names  every task's name, then every edge's, back to back
//	w      BaseTime, Volume of each task, then of each edge: 2(n+m)
//	idx    nameOff[n+m+1] link[2m]
//	       outOff[n+1] inOff[n+1] outIdx[m] inIdx[m] topo[n]
//
// The k-th name (task k, or edge k-n) is names[nameOff[k]:nameOff[k+1]];
// link holds each edge's From and To; task t's outgoing edges are the edge
// indices at outIdx[outOff[t]:outOff[t+1]], its incoming ones at
// inIdx[inOff[t]:inOff[t+1]], each run in edge insertion order; topo is the
// deterministic topological order. Task and Edge values are rebuilt from
// these on each read, a name as a substring; the name offsets lead idx so
// that Task reads a name without the counts, which dims derives from the
// slab lengths.
type graph struct {
	names string
	w     []int64
	idx   []int32
}

// dims returns the task and edge counts n and m, which the slab lengths
// give: len(w) is 2(n+m) and len(idx) is 4(n+m)+m+3.
func (j *Job) dims() (n, m int) {
	m = len(j.idx) - 3 - 2*len(j.w)
	return len(j.w)/2 - m, m
}

// topo is the deterministic topological order.
func (j *Job) topo() []int32 {
	n, _ := j.dims()
	return j.idx[len(j.idx)-n:]
}

// csr returns idx from outOff on, and the counts that cut it.
func (j *Job) csr() (csr []int32, n, m int) {
	n, m = j.dims()
	return j.idx[n+3*m+1:], n, m
}

// link holds each edge's From and To, in pairs.
func (j *Job) link() []int32 {
	n, m := j.dims()
	return j.idx[n+m+1 : n+3*m+1]
}

// name returns the k-th name: task k's, or edge k-n's.
func (j *Job) name(k int) string { return j.names[j.idx[k]:j.idx[k+1]] }

// jobBlock is a built job and its graph in one allocation.
type jobBlock struct {
	job Job
	g   graph
}

// buildBufs holds the int32 working arrays of Build (the fill cursors of the
// edge runs, then the in-degrees and ready heap of the topological sort) and
// of Coarsen.
var buildBufs = sync.Pool{New: func() any { return new([]int32) }}

// staging is a Builder's working copy of the graph it assembles, in the
// graph's own terms: the task names and the edge names each back to back,
// the end of each name in them, the weights in pairs and each edge's
// endpoints. Stagings are pooled: Build copies one into the graph's slabs
// at their exact lengths and gives it back.
type staging struct {
	tnames, enames []byte
	tends, eends   []int32
	tw, ew         []int64
	links          []int32
}

var stagings = sync.Pool{New: func() any { return new(staging) }}

// taskName is the name of the task added id-th.
func (s *staging) taskName(id TaskID) []byte {
	start := int32(0)
	if id > 0 {
		start = s.tends[id-1]
	}
	return s.tnames[start:s.tends[id]]
}

// load fills an empty staging with j's tasks and edges.
func (s *staging) load(j *Job) {
	n, m := j.dims()
	off := j.idx[:n+m+1]
	s.tnames = append(s.tnames, j.names[:off[n]]...)
	s.enames = append(s.enames, j.names[off[n]:]...)
	s.tends = append(s.tends, off[1:n+1]...)
	for _, end := range off[n+1:] {
		s.eends = append(s.eends, end-off[n])
	}
	s.tw = append(s.tw, j.w[:2*n]...)
	s.ew = append(s.ew, j.w[2*n:]...)
	s.links = append(s.links, j.link()...)
}

// extendTask appends "+k" to the name of the task added last.
func (s *staging) extendTask(k int) {
	s.tnames = strconv.AppendInt(append(s.tnames, '+'), int64(k), 10)
	s.tends[len(s.tends)-1] = int32(len(s.tnames))
}

// extendEdge appends "+name" to the name of the edge added last.
func (s *staging) extendEdge(name string) {
	s.enames = append(append(s.enames, '+'), name...)
	s.eends[len(s.eends)-1] = int32(len(s.enames))
}

// Builder assembles a Job. Tasks are added by name and edges between task
// IDs (Link): a caller resolves a name to its ID once, where it reads the
// name, and Edge is by-name sugar over Link for hand-built graphs. Methods
// panic on structural misuse (unknown endpoints, self-loops, bad weights)
// because job construction in this codebase is always programmatic; Build
// returns an error for graph-level problems (emptiness, duplicate task
// names, cycles) that can depend on runtime data.
type Builder struct {
	name     string
	deadline simtime.Time
	s        *staging // nil before the first Task and after a Build
	built    *Job     // what the last Build copied out, which a later change starts from
}

// NewBuilder starts a job named name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// stage returns the builder's staging, taking one from the pool if it has
// none: empty, or holding what the last Build copied out.
func (b *Builder) stage() *staging {
	if b.s == nil {
		s := stagings.Get().(*staging)
		s.tnames, s.enames = s.tnames[:0], s.enames[:0]
		s.tends, s.eends = s.tends[:0], s.eends[:0]
		s.tw, s.ew, s.links = s.tw[:0], s.ew[:0], s.links[:0]
		if b.built != nil {
			s.load(b.built)
			b.built = nil
		}
		b.s = s
	}
	return b.s
}

// Grow makes room for tasks more tasks and edges more edges, for a caller
// that knows the job's size before it adds the first task: the staging's
// weights, endpoints and name ends then do not grow as they are added.
func (b *Builder) Grow(tasks, edges int) *Builder {
	s := b.stage()
	s.tends, s.tw = slices.Grow(s.tends, tasks), slices.Grow(s.tw, 2*tasks)
	s.eends, s.ew, s.links = slices.Grow(s.eends, edges), slices.Grow(s.ew, 2*edges), slices.Grow(s.links, 2*edges)
	return b
}

// Deadline sets the job's required completion time.
func (b *Builder) Deadline(d simtime.Time) *Builder {
	b.deadline = d
	return b
}

// Task adds a task and returns its ID, which Link takes. baseTime must be
// positive and volume non-negative. A name another task already has is not
// refused here: Build reports the duplicate.
func (b *Builder) Task(name string, baseTime simtime.Time, volume int64) TaskID {
	if baseTime <= 0 {
		panic(fmt.Sprintf("dag: task %q has non-positive base time %d", name, baseTime))
	}
	if volume < 0 {
		panic(fmt.Sprintf("dag: task %q has negative volume %d", name, volume))
	}
	s := b.stage()
	s.tnames = append(s.tnames, name...)
	s.tends = append(s.tends, int32(len(s.tnames)))
	s.tw = append(s.tw, baseTime, volume)
	return TaskID(len(s.tends) - 1)
}

// Link adds a data transfer from task `from` to task `to`, by the IDs Task
// returned.
func (b *Builder) Link(name string, from, to TaskID, baseTime simtime.Time, volume int64) *Builder {
	s := b.stage()
	for _, id := range [2]TaskID{from, to} {
		if id < 0 || int(id) >= len(s.tends) {
			panic(fmt.Sprintf("dag: edge %q references unknown task %d", name, id))
		}
	}
	if from == to {
		panic(fmt.Sprintf("dag: edge %q is a self-loop on %q", name, s.taskName(from)))
	}
	if baseTime < 0 || volume < 0 {
		panic(fmt.Sprintf("dag: edge %q has negative weight", name))
	}
	s.enames = append(s.enames, name...)
	s.eends = append(s.eends, int32(len(s.enames)))
	s.ew = append(s.ew, baseTime, volume)
	s.links = append(s.links, int32(from), int32(to))
	return b
}

// Edge is Link by task name, for small hand-built graphs: each endpoint is
// found by a scan of the tasks added so far, so a graph built by name costs
// O(tasks × edges). A caller with many tasks keeps the IDs Task returns and
// calls Link. Of two tasks with one name Edge finds the first; Build then
// refuses the job.
func (b *Builder) Edge(name, from, to string, baseTime simtime.Time, volume int64) *Builder {
	return b.Link(name, b.lookup(name, from), b.lookup(name, to), baseTime, volume)
}

// lookup returns the ID of the first task named task, for edge `edge`.
func (b *Builder) lookup(edge, task string) TaskID {
	s := b.stage()
	for id := range s.tends {
		if string(s.taskName(TaskID(id))) == task {
			return TaskID(id)
		}
	}
	panic(fmt.Sprintf("dag: edge %q references unknown task %q", edge, task))
}

// Build validates the graph and returns the immutable Job. The job's graph
// is a copy of the builder's staging, which goes back to the pool: a
// builder used after Build stages afresh from that copy, so it cannot
// write into a built job or into another builder's staging.
func (b *Builder) Build() (*Job, error) {
	s := b.stage()
	n, m := len(s.tends), len(s.eends)
	if n == 0 {
		return nil, fmt.Errorf("dag: job %q has no tasks", b.name)
	}
	// The graph stores task and edge indices and name offsets as int32.
	if n >= math.MaxInt32 || m > math.MaxInt32 || len(s.tnames)+len(s.enames) > math.MaxInt32 {
		return nil, fmt.Errorf("dag: job %q is too large (%d tasks, %d edges)", b.name, n, m)
	}
	var names strings.Builder
	names.Grow(len(s.tnames) + len(s.enames))
	names.Write(s.tnames)
	names.Write(s.enames)
	w := make([]int64, 2*(n+m))
	copy(w[copy(w, s.tw):], s.ew)
	blk := &jobBlock{
		job: Job{Name: b.name, Deadline: b.deadline},
		g:   graph{names: names.String(), w: w, idx: make([]int32, 4*(n+m)+m+3)},
	}
	j := &blk.job
	j.graph = &blk.g
	idx := j.idx
	nameOff, link := idx[:n+m+1], idx[n+m+1:n+3*m+1]
	copy(link, s.links)
	copy(nameOff[1:], s.tends)
	for i, end := range s.eends {
		nameOff[n+1+i] = int32(len(s.tnames)) + end
	}
	b.s, b.built = nil, j
	stagings.Put(s)
	if err := j.checkNames(); err != nil {
		return nil, err
	}
	// Counting sort by endpoint: degrees, then prefix sums, then each edge
	// into its task's run — in edge order, so a run keeps insertion order.
	csr, _, _ := j.csr()
	outOff, inOff := csr[:n+1], csr[n+1:2*n+2]
	outIdx, inIdx := csr[2*n+2:2*n+2+m], csr[2*n+2+m:2*n+2+2*m]
	for i := 0; i < m; i++ {
		outOff[link[2*i]+1]++
		inOff[link[2*i+1]+1]++
	}
	for t := 0; t < n; t++ {
		outOff[t+1] += outOff[t]
		inOff[t+1] += inOff[t]
	}
	// Working memory: the fill cursors of the incoming and outgoing runs.
	// The first ends up as every task's in-degree, which Kahn's loop counts
	// down; the second is done with by then and becomes its ready heap.
	buf := buildBufs.Get().(*[]int32)
	defer buildBufs.Put(buf)
	if cap(*buf) < 2*n {
		*buf = make([]int32, 2*n)
	}
	tmp := (*buf)[:2*n]
	clear(tmp)
	indeg, outFill := tmp[:n], tmp[n:]
	for i := 0; i < m; i++ {
		from, to := link[2*i], link[2*i+1]
		outIdx[outOff[from]+outFill[from]] = int32(i)
		outFill[from]++
		inIdx[inOff[to]+indeg[to]] = int32(i)
		indeg[to]++
	}
	if err := j.computeTopo(indeg, outFill[:0]); err != nil {
		return nil, err
	}
	return j, nil
}

// MustBuild is Build that panics on error, for statically known-good graphs.
func (b *Builder) MustBuild() *Job {
	j, err := b.Build()
	if err != nil {
		panic(err)
	}
	return j
}

// checkNames returns an error naming a task name that two tasks share. It
// sorts the task IDs by name in j.topo(), which computeTopo overwrites next.
func (j *Job) checkNames() error {
	ids := j.topo()
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int { return strings.Compare(j.name(int(a)), j.name(int(b))) })
	for i := 1; i < len(ids); i++ {
		if name := j.name(int(ids[i])); name == j.name(int(ids[i-1])) {
			return fmt.Errorf("dag: job %q has duplicate task %q", j.Name, name)
		}
	}
	return nil
}

// computeTopo fills j.topo() with the deterministic topological order — Kahn's
// algorithm, always emitting the smallest ready TaskID — or returns an error
// naming a task on a cycle. indeg holds every task's in-degree and is
// consumed; ready is an empty buffer with room for every task, kept as a
// binary min-heap.
func (j *Job) computeTopo(indeg, ready []int32) error {
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, int32(id)) // ascending, so already a heap
		}
	}
	link := j.link()
	order := j.topo()[:0]
	for len(ready) > 0 {
		id := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready, 0)
		order = append(order, id)
		for _, ei := range j.OutIdx(TaskID(id)) {
			to := link[2*int(ei)+1]
			indeg[to]--
			if indeg[to] == 0 {
				ready = append(ready, to)
				siftUp(ready, len(ready)-1)
			}
		}
	}
	if len(order) != len(indeg) {
		for id, d := range indeg {
			if d > 0 {
				return fmt.Errorf("dag: job %q has a cycle through task %q", j.Name, j.name(id))
			}
		}
	}
	return nil
}

func siftUp(h []int32, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []int32, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l] < h[least] {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[least] {
			least = r
		}
		if least == i {
			return
		}
		h[least], h[i] = h[i], h[least]
		i = least
	}
}

// WithDeadline returns a copy of the job that differs only in its
// deadline: one 32-byte allocation, the graph shared.
func (j *Job) WithDeadline(d simtime.Time) *Job {
	cp := *j
	cp.Deadline = d
	return &cp
}

// NumTasks returns the number of tasks in the job.
func (j *Job) NumTasks() int { n, _ := j.dims(); return n }

// NumEdges returns the number of data-transfer edges.
func (j *Job) NumEdges() int { _, m := j.dims(); return m }

// Task returns the task with the given ID.
func (j *Job) Task(id TaskID) Task {
	return Task{ID: id, Name: j.name(int(id)), BaseTime: j.w[2*id], Volume: j.w[2*id+1]}
}

// Tasks returns all tasks in ID order (a copy).
func (j *Job) Tasks() []Task {
	out := make([]Task, j.NumTasks())
	for i := range out {
		out[i] = j.Task(TaskID(i))
	}
	return out
}

// Edges returns all edges (a copy; nil for a job without edges).
func (j *Job) Edges() []Edge {
	n, m := j.dims()
	if m == 0 {
		return nil
	}
	out := make([]Edge, m)
	for i := range out {
		j.readEdge(&out[i], i, n, m)
	}
	return out
}

// TaskByName returns the task with the given name.
func (j *Job) TaskByName(name string) (Task, bool) {
	for id := range j.NumTasks() {
		if j.name(id) == name {
			return j.Task(TaskID(id)), true
		}
	}
	return Task{}, false
}

// EdgeAt returns the i-th edge of Edges, 0 ≤ i < NumEdges, without the copy.
func (j *Job) EdgeAt(i int) (e Edge) {
	n, m := j.dims()
	j.readEdge(&e, i, n, m)
	return e
}

// readEdge writes edge i of a job with n tasks and m edges to e, field by
// field: an Edge has too many fields for the compiler to keep in
// registers, and one built in a temporary and then copied whole costs a
// stalled load on every read.
func (j *Job) readEdge(e *Edge, i, n, m int) {
	idx, k := j.idx, n+i // edge i is the k-th name and weight pair
	e.Name = j.names[idx[k]:idx[k+1]]
	e.From, e.To = TaskID(idx[k+m+1+i]), TaskID(idx[k+m+2+i])
	e.BaseTime, e.Volume = j.w[2*k], j.w[2*k+1]
}

// TopoOrder returns a deterministic topological order of the task IDs (a
// fresh slice).
func (j *Job) TopoOrder() []TaskID {
	topo := j.topo()
	out := make([]TaskID, len(topo))
	for i, id := range topo {
		out[i] = TaskID(id)
	}
	return out
}

// TopoAt returns the i-th task of TopoOrder, 0 ≤ i < NumTasks, without the
// copy.
func (j *Job) TopoAt(i int) TaskID { return TaskID(j.topo()[i]) }

// OutIdx returns task id's outgoing edges as edge indices (EdgeAt), in
// insertion order. The slice is a read-only view of the job's own run, with
// its capacity clipped to it: the caller must not write it, and an append
// copies.
func (j *Job) OutIdx(id TaskID) []int32 {
	csr, n, _ := j.csr()
	lo, hi := 2*n+2+int(csr[id]), 2*n+2+int(csr[id+1])
	return csr[lo:hi:hi]
}

// InIdx is OutIdx for task id's incoming edges.
func (j *Job) InIdx(id TaskID) []int32 {
	csr, n, m := j.csr()
	lo, hi := 2*n+2+m+int(csr[n+1+int(id)]), 2*n+2+m+int(csr[n+2+int(id)])
	return csr[lo:hi:hi]
}

// Out returns the outgoing edges of a task (a fresh slice).
func (j *Job) Out(id TaskID) []Edge {
	run := j.OutIdx(id)
	return j.appendEdges(make([]Edge, 0, len(run)), run)
}

// In returns the incoming edges of a task (a fresh slice).
func (j *Job) In(id TaskID) []Edge {
	run := j.InIdx(id)
	return j.appendEdges(make([]Edge, 0, len(run)), run)
}

// appendEdges appends the edges at the indices run to dst, each written in
// place.
func (j *Job) appendEdges(dst []Edge, run []int32) []Edge {
	n, m := j.dims()
	k := len(dst)
	dst = slices.Grow(dst, len(run))[:k+len(run)]
	for x, i := range run {
		j.readEdge(&dst[k+x], int(i), n, m)
	}
	return dst
}

// Sources returns tasks with no predecessors, in ID order.
func (j *Job) Sources() []TaskID {
	var out []TaskID
	for id := range j.NumTasks() {
		if len(j.InIdx(TaskID(id))) == 0 {
			out = append(out, TaskID(id))
		}
	}
	return out
}

// TotalVolume returns the sum of task computation volumes.
func (j *Job) TotalVolume() int64 {
	var v int64
	for id := range j.NumTasks() {
		v += j.w[2*id+1]
	}
	return v
}

// Chain is a source-to-sink path through the job: the unit the critical
// works method schedules. Length is the chain's estimated duration under
// the weight function used to find it.
type Chain struct {
	Tasks  []TaskID
	Length simtime.Time
}

// WeightFunc gives the estimated duration of a transfer edge for
// chain-length purposes; a nil Edge means "use the base estimate". A task
// always weighs its base estimate.
type WeightFunc struct {
	Edge func(Edge) simtime.Time
}

func (w WeightFunc) edge(e Edge) simtime.Time {
	if w.Edge == nil {
		return e.BaseTime
	}
	return w.Edge(e)
}

// ChainBuf is the working memory of a longest-chain search, for a caller
// that runs many: it grows to the largest job it has served and a search
// allocates nothing after that. The zero value is ready to use.
type ChainBuf struct {
	dist  []simtime.Time // best chain length ending at each task, the task included
	prev  []int32        // predecessor on that chain, or -1
	tasks []TaskID       // the chain last returned
}

// LongestChain returns the longest (by weight) chain through the tasks for
// which include returns true (include==nil means all tasks). Edges to or
// from excluded tasks still contribute their transfer weight when both
// endpoints are included; chains never pass through excluded tasks.
// Returns ok=false when no included task exists.
//
// This is the "next critical work" search of the method's phase loop:
// weights are the fastest-node estimates plus data transfer times, and
// already-assigned tasks are excluded.
func (j *Job) LongestChain(w WeightFunc, include func(TaskID) bool) (Chain, bool) {
	return j.LongestChainBuf(new(ChainBuf), w, include)
}

// LongestChainBuf is LongestChain run in buf. The returned chain's Tasks
// are buf's: valid until the next search that uses it.
func (j *Job) LongestChainBuf(buf *ChainBuf, w WeightFunc, include func(TaskID) bool) (Chain, bool) {
	incl := func(id TaskID) bool { return include == nil || include(id) }
	n, link := j.NumTasks(), j.link()
	if cap(buf.dist) < n {
		buf.dist, buf.prev, buf.tasks = make([]simtime.Time, n), make([]int32, n), make([]TaskID, n)
	}
	dist, prev := buf.dist[:n], buf.prev[:n]
	any := false
	for i := range prev {
		prev[i] = -1
		dist[i] = -1
	}
	for _, t := range j.topo() {
		id := TaskID(t)
		if !incl(id) {
			continue
		}
		any = true
		base := j.w[2*id]
		if dist[id] < base {
			dist[id] = base
			prev[id] = -1
		}
		for _, ei := range j.OutIdx(id) {
			to := TaskID(link[2*int(ei)+1])
			if !incl(to) {
				continue
			}
			transfer := j.w[2*(n+int(ei))] // the edge's BaseTime, read whole only for a custom weight
			if w.Edge != nil {
				transfer = w.Edge(j.EdgeAt(int(ei)))
			}
			cand := dist[id] + transfer + j.w[2*to]
			if cand > dist[to] || (cand == dist[to] && better(prev[to], t)) {
				dist[to] = cand
				prev[to] = t
			}
		}
	}
	if !any {
		return Chain{}, false
	}
	// Pick the best terminal deterministically: max length, then min ID.
	best := int32(-1)
	for id := range n {
		if !incl(TaskID(id)) || dist[id] < 0 {
			continue
		}
		if best == -1 || dist[id] > dist[best] || (dist[id] == dist[best] && int32(id) < best) {
			best = int32(id)
		}
	}
	// Walk the chain back once for its length, once more to lay it out
	// source first.
	length := 0
	for cur := best; cur != -1; cur = prev[cur] {
		length++
	}
	tasks := buf.tasks[:length]
	for i, cur := length-1, best; cur != -1; i, cur = i-1, prev[cur] {
		tasks[i] = TaskID(cur)
	}
	return Chain{Tasks: tasks, Length: dist[best]}, true
}

// better is the deterministic tie-break for equal-length chains: prefer the
// smaller predecessor ID (with -1 meaning "no predecessor", preferred last).
func better(old, cand int32) bool {
	if old == -1 {
		return false
	}
	return cand < old
}

// AllChains enumerates every source-to-sink chain with its weighted length,
// sorted by descending length (ties by lexicographic task order). The
// number of chains can be exponential in the DAG size; callers use this
// only on small graphs (e.g. the paper's Fig. 2 example) and in tests.
func (j *Job) AllChains(w WeightFunc) []Chain {
	var out []Chain
	var walk func(id TaskID, path []TaskID, length simtime.Time)
	walk = func(id TaskID, path []TaskID, length simtime.Time) {
		path = append(path, id)
		length += j.w[2*id]
		if len(j.OutIdx(id)) == 0 {
			out = append(out, Chain{Tasks: append([]TaskID(nil), path...), Length: length})
			return
		}
		for _, ei := range j.OutIdx(id) {
			e := j.EdgeAt(int(ei))
			walk(e.To, path, length+w.edge(e))
		}
	}
	for _, s := range j.Sources() {
		walk(s, nil, 0)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Length != out[b].Length {
			return out[a].Length > out[b].Length
		}
		return lessTaskSeq(out[a].Tasks, out[b].Tasks)
	})
	return out
}

func lessTaskSeq(a, b []TaskID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// chainBufs holds the working memory of CriticalPathLength's searches.
var chainBufs = sync.Pool{New: func() any { return new(ChainBuf) }}

// CriticalPathLength returns the weight of the longest chain in the whole
// job — the lower bound on the job's makespan on unlimited fastest nodes.
// It searches in a pooled ChainBuf and allocates nothing once warm.
func (j *Job) CriticalPathLength(w WeightFunc) simtime.Time {
	buf := chainBufs.Get().(*ChainBuf)
	defer chainBufs.Put(buf)
	c, ok := j.LongestChainBuf(buf, w, nil)
	if !ok {
		return 0
	}
	return c.Length
}
