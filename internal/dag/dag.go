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

// graph is a job's immutable structure: its tasks, its edges and the
// adjacency in compressed sparse rows, one []int32 laid out as
//
//	outOff[n+1] inOff[n+1] outIdx[m] inIdx[m] topo[n]
//
// for n tasks and m edges. Task t's outgoing edges are the indices into
// edges at outIdx[outOff[t]:outOff[t+1]], its incoming ones at
// inIdx[inOff[t]:inOff[t+1]], each run in edge insertion order; topo is the
// deterministic topological order. The accessors cut each part by n and m.
type graph struct {
	tasks []Task
	edges []Edge
	csr   []int32
}

// topo is the deterministic topological order, the last part of g.csr.
func (g *graph) topo() []int32 { return g.csr[2*len(g.tasks)+2+2*len(g.edges):] }

// jobBlock is a built job and its graph in one allocation.
type jobBlock struct {
	job Job
	g   graph
}

// buildBufs holds Build's working arrays: the fill cursors of the edge runs,
// then the in-degrees and ready heap of the topological sort.
var buildBufs = sync.Pool{New: func() any { return new([]int32) }}

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
	tasks    []Task
	edges    []Edge
}

// NewBuilder starts a job named name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// Grow makes room for tasks more tasks and edges more edges, for a caller
// that knows the job's size before it adds the first task: the lists then
// never reallocate and Build hands them over without slack.
func (b *Builder) Grow(tasks, edges int) *Builder {
	b.tasks = slices.Grow(b.tasks, tasks)
	b.edges = slices.Grow(b.edges, edges)
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
	id := TaskID(len(b.tasks))
	b.tasks = append(b.tasks, Task{ID: id, Name: name, BaseTime: baseTime, Volume: volume})
	return id
}

// Link adds a data transfer from task `from` to task `to`, by the IDs Task
// returned.
func (b *Builder) Link(name string, from, to TaskID, baseTime simtime.Time, volume int64) *Builder {
	for _, id := range [2]TaskID{from, to} {
		if id < 0 || int(id) >= len(b.tasks) {
			panic(fmt.Sprintf("dag: edge %q references unknown task %d", name, id))
		}
	}
	if from == to {
		panic(fmt.Sprintf("dag: edge %q is a self-loop on %q", name, b.tasks[from].Name))
	}
	if baseTime < 0 || volume < 0 {
		panic(fmt.Sprintf("dag: edge %q has negative weight", name))
	}
	b.edges = append(b.edges, Edge{Name: name, From: from, To: to, BaseTime: baseTime, Volume: volume})
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
	for _, t := range b.tasks {
		if t.Name == task {
			return t.ID
		}
	}
	panic(fmt.Sprintf("dag: edge %q references unknown task %q", edge, task))
}

// Build validates the graph and returns the immutable Job. The job takes
// the builder's task and edge lists as they are, without a copy; they are
// clipped first, so a Task or Edge added to the builder afterwards
// reallocates its list and cannot write into a built job.
func (b *Builder) Build() (*Job, error) {
	n, m := len(b.tasks), len(b.edges)
	if n == 0 {
		return nil, fmt.Errorf("dag: job %q has no tasks", b.name)
	}
	// The adjacency stores task and edge indices as int32.
	if n >= math.MaxInt32 || m > math.MaxInt32 {
		return nil, fmt.Errorf("dag: job %q is too large (%d tasks, %d edges)", b.name, n, m)
	}
	b.tasks, b.edges = slices.Clip(b.tasks), slices.Clip(b.edges)
	blk := &jobBlock{
		job: Job{Name: b.name, Deadline: b.deadline},
		g:   graph{tasks: b.tasks, edges: b.edges, csr: make([]int32, 2*(n+1)+2*m+n)},
	}
	j := &blk.job
	j.graph = &blk.g
	if err := j.checkNames(); err != nil {
		return nil, err
	}
	// Counting sort by endpoint: degrees, then prefix sums, then each edge
	// into its task's run — in edge order, so a run keeps insertion order.
	csr := j.csr
	outOff, inOff := csr[:n+1], csr[n+1:2*n+2]
	outIdx, inIdx := csr[2*n+2:2*n+2+m], csr[2*n+2+m:2*n+2+2*m]
	for _, e := range j.edges {
		outOff[e.From+1]++
		inOff[e.To+1]++
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
	for i, e := range j.edges {
		outIdx[outOff[e.From]+outFill[e.From]] = int32(i)
		outFill[e.From]++
		inIdx[inOff[e.To]+indeg[e.To]] = int32(i)
		indeg[e.To]++
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
	slices.SortFunc(ids, func(a, b int32) int { return strings.Compare(j.tasks[a].Name, j.tasks[b].Name) })
	for i := 1; i < len(ids); i++ {
		if name := j.tasks[ids[i]].Name; name == j.tasks[ids[i-1]].Name {
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
	order := j.topo()[:0]
	for len(ready) > 0 {
		id := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready, 0)
		order = append(order, id)
		for _, ei := range j.out(TaskID(id)) {
			to := j.edges[ei].To
			indeg[to]--
			if indeg[to] == 0 {
				ready = append(ready, int32(to))
				siftUp(ready, len(ready)-1)
			}
		}
	}
	if len(order) != len(j.tasks) {
		for id, d := range indeg {
			if d > 0 {
				return fmt.Errorf("dag: job %q has a cycle through task %q", j.Name, j.tasks[id].Name)
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
func (j *Job) NumTasks() int { return len(j.tasks) }

// NumEdges returns the number of data-transfer edges.
func (j *Job) NumEdges() int { return len(j.edges) }

// Task returns the task with the given ID.
func (j *Job) Task(id TaskID) Task { return j.tasks[id] }

// Tasks returns all tasks in ID order (a copy).
func (j *Job) Tasks() []Task { return append([]Task(nil), j.tasks...) }

// Edges returns all edges (a copy).
func (j *Job) Edges() []Edge { return append([]Edge(nil), j.edges...) }

// TaskByName returns the task with the given name.
func (j *Job) TaskByName(name string) (Task, bool) {
	for _, t := range j.tasks {
		if t.Name == name {
			return t, true
		}
	}
	return Task{}, false
}

// EdgeAt returns the i-th edge of Edges, 0 ≤ i < NumEdges, without the copy.
func (j *Job) EdgeAt(i int) Edge { return j.edges[i] }

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

// out and in return a task's outgoing and incoming edges as indices into
// g.edges, in insertion order.
func (g *graph) out(id TaskID) []int32 {
	n := len(g.tasks)
	return g.csr[2*n+2+int(g.csr[id]) : 2*n+2+int(g.csr[id+1])]
}
func (g *graph) in(id TaskID) []int32 {
	n, m := len(g.tasks), len(g.edges)
	return g.csr[2*n+2+m+int(g.csr[n+1+int(id)]) : 2*n+2+m+int(g.csr[n+2+int(id)])]
}

// Out returns the outgoing edges of a task (a fresh slice).
func (j *Job) Out(id TaskID) []Edge {
	return j.AppendOut(make([]Edge, 0, len(j.out(id))), id)
}

// In returns the incoming edges of a task (a fresh slice).
func (j *Job) In(id TaskID) []Edge {
	return j.AppendIn(make([]Edge, 0, len(j.in(id))), id)
}

// AppendOut appends the outgoing edges of a task to dst, in Out's order,
// and returns the extended slice. Hot loops pass a reused buffer
// (dst[:0]) to walk a task's edges without allocating.
func (j *Job) AppendOut(dst []Edge, id TaskID) []Edge {
	for _, ei := range j.out(id) {
		dst = append(dst, j.edges[ei])
	}
	return dst
}

// AppendIn is AppendOut for the incoming edges, in In's order.
func (j *Job) AppendIn(dst []Edge, id TaskID) []Edge {
	for _, ei := range j.in(id) {
		dst = append(dst, j.edges[ei])
	}
	return dst
}

// Sources returns tasks with no predecessors, in ID order.
func (j *Job) Sources() []TaskID {
	var out []TaskID
	for id := range j.tasks {
		if len(j.in(TaskID(id))) == 0 {
			out = append(out, TaskID(id))
		}
	}
	return out
}

// TotalVolume returns the sum of task computation volumes.
func (j *Job) TotalVolume() int64 {
	var v int64
	for _, t := range j.tasks {
		v += t.Volume
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

// WeightFunc gives the estimated duration of a task and of a transfer edge
// for chain-length purposes. Either function may be nil, meaning "use the
// base estimate".
type WeightFunc struct {
	Task func(Task) simtime.Time
	Edge func(Edge) simtime.Time
}

func (w WeightFunc) task(t Task) simtime.Time {
	if w.Task == nil {
		return t.BaseTime
	}
	return w.Task(t)
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
	n := len(j.tasks)
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
		base := w.task(j.tasks[id])
		if dist[id] < base {
			dist[id] = base
			prev[id] = -1
		}
		for _, ei := range j.out(id) {
			e := j.edges[ei]
			if !incl(e.To) {
				continue
			}
			cand := dist[id] + w.edge(e) + w.task(j.tasks[e.To])
			if cand > dist[e.To] || (cand == dist[e.To] && better(prev[e.To], t)) {
				dist[e.To] = cand
				prev[e.To] = t
			}
		}
	}
	if !any {
		return Chain{}, false
	}
	// Pick the best terminal deterministically: max length, then min ID.
	best := int32(-1)
	for id := range j.tasks {
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
		length += w.task(j.tasks[id])
		if len(j.out(id)) == 0 {
			out = append(out, Chain{Tasks: append([]TaskID(nil), path...), Length: length})
			return
		}
		for _, ei := range j.out(id) {
			e := j.edges[ei]
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
