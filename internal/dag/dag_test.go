package dag

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/simtime"
)

// fig2Job reproduces the paper's Fig. 2(a) example: tasks P1..P6, transfers
// D1..D8, with the §3 estimation table (Ti1 = 2,3,1,2,1,2; V = 20,30,10,20,
// 10,20) and unit transfer times chosen so the four critical works measure
// 12, 11, 10 and 9 time units on type-1 nodes.
func fig2Job(t testing.TB) *Job {
	t.Helper()
	b := NewBuilder("fig2").Deadline(20)
	b.Task("P1", 2, 20)
	b.Task("P2", 3, 30)
	b.Task("P3", 1, 10)
	b.Task("P4", 2, 20)
	b.Task("P5", 1, 10)
	b.Task("P6", 2, 20)
	// Unit transfer times make the four chains measure exactly
	// P1-P2-P4-P6 = 2+1+3+1+2+1+2 = 12, P1-P2-P5-P6 = 11,
	// P1-P3-P4-P6 = 10, P1-P3-P5-P6 = 9 (type-1 task times + transfers).
	b.Edge("D1", "P1", "P2", 1, 10)
	b.Edge("D2", "P1", "P3", 1, 10)
	b.Edge("D3", "P2", "P4", 1, 10)
	b.Edge("D4", "P2", "P5", 1, 10)
	b.Edge("D5", "P3", "P4", 1, 10)
	b.Edge("D6", "P3", "P5", 1, 10)
	b.Edge("D7", "P4", "P6", 1, 10)
	b.Edge("D8", "P5", "P6", 1, 10)
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	j := fig2Job(t)
	if j.NumTasks() != 6 || j.NumEdges() != 8 {
		t.Fatalf("got %d tasks, %d edges", j.NumTasks(), j.NumEdges())
	}
	p3, ok := j.TaskByName("P3")
	if !ok || p3.BaseTime != 1 || p3.Volume != 10 {
		t.Errorf("P3 = %+v, ok=%v", p3, ok)
	}
	if _, ok := j.TaskByName("P9"); ok {
		t.Error("found nonexistent task")
	}
	if j.TotalVolume() != 110 {
		t.Errorf("TotalVolume = %d, want 110", j.TotalVolume())
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero base time", func() { NewBuilder("x").Task("A", 0, 1) }},
		{"negative volume", func() { NewBuilder("x").Task("A", 1, -1) }},
		{"unknown edge endpoint", func() {
			b := NewBuilder("x")
			b.Task("A", 1, 1)
			b.Edge("e", "A", "B", 1, 1)
		}},
		{"unknown edge ID", func() {
			b := NewBuilder("x")
			a := b.Task("A", 1, 1)
			b.Link("e", a, a+1, 1, 1)
		}},
		{"negative edge ID", func() {
			b := NewBuilder("x")
			a := b.Task("A", 1, 1)
			b.Link("e", -1, a, 1, 1)
		}},
		{"negative edge weight", func() {
			b := NewBuilder("x")
			a, c := b.Task("A", 1, 1), b.Task("C", 1, 1)
			b.Link("e", a, c, -1, 1)
		}},
		{"self loop", func() {
			b := NewBuilder("x")
			b.Task("A", 1, 1)
			b.Edge("e", "A", "A", 1, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

// TestBuildRejectsDuplicateTasks: two tasks of one name are a Build error,
// naming the name, wherever the two sit among the tasks.
func TestBuildRejectsDuplicateTasks(t *testing.T) {
	for _, names := range [][]string{{"A", "A"}, {"B", "A", "C", "A"}, {"Z", "Y", "X", "Z"}} {
		b := NewBuilder("x")
		for _, name := range names {
			b.Task(name, 1, 1)
		}
		_, err := b.Build()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("duplicate task %q", names[len(names)-1])) {
			t.Errorf("%v: Build error %v, want a duplicate task %q", names, err, names[len(names)-1])
		}
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Fatal("empty job built without error")
	}
}

func TestBuildRejectsCycle(t *testing.T) {
	b := NewBuilder("cyc")
	b.Task("A", 1, 1)
	b.Task("B", 1, 1)
	b.Task("C", 1, 1)
	b.Edge("e1", "A", "B", 1, 1)
	b.Edge("e2", "B", "C", 1, 1)
	b.Edge("e3", "C", "A", 1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("cyclic job built without error")
	}
}

func TestTopoOrderValid(t *testing.T) {
	j := fig2Job(t)
	order := j.TopoOrder()
	pos := make(map[TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	if len(order) != j.NumTasks() {
		t.Fatalf("topo order has %d entries", len(order))
	}
	for _, e := range j.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %s violates topo order", e.Name)
		}
	}
}

func TestSourcesSinks(t *testing.T) {
	j := fig2Job(t)
	if s := j.Sources(); len(s) != 1 || j.Task(s[0]).Name != "P1" {
		t.Errorf("Sources = %v", s)
	}
}

func TestInOut(t *testing.T) {
	j := fig2Job(t)
	p2, _ := j.TaskByName("P2")
	out := j.Out(p2.ID)
	if len(out) != 2 {
		t.Fatalf("P2 out-degree = %d", len(out))
	}
	in := j.In(p2.ID)
	if len(in) != 1 || in[0].Name != "D1" {
		t.Errorf("P2 in = %v", in)
	}
}

// TestInOutMatchEdgeList checks In and Out against an independent
// derivation (the edge list filtered by endpoint), on Fig. 2 and on random
// DAGs: same edges, same order, and no allocation but the slice returned.
func TestInOutMatchEdgeList(t *testing.T) {
	jobs := []*Job{fig2Job(t)}
	for seed := uint64(1); seed <= 40; seed++ {
		jobs = append(jobs, randomJob(rng.New(seed), 8))
	}
	for _, j := range jobs {
		returned := 0
		for id := TaskID(0); int(id) < j.NumTasks(); id++ {
			var wantIn, wantOut []Edge
			for _, e := range j.Edges() {
				if e.To == id {
					wantIn = append(wantIn, e)
				}
				if e.From == id {
					wantOut = append(wantOut, e)
				}
			}
			for _, tc := range []struct {
				name      string
				got, want []Edge
			}{
				{"In", j.In(id), wantIn},
				{"Out", j.Out(id), wantOut},
			} {
				if !sameEdges(tc.got, tc.want) {
					t.Fatalf("%s(%d) = %v, want %v", tc.name, id, tc.got, tc.want)
				}
				if len(tc.want) > 0 {
					returned++
				}
			}
		}
		if n := testing.AllocsPerRun(10, func() {
			for id := TaskID(0); int(id) < j.NumTasks(); id++ {
				j.In(id)
				j.Out(id)
			}
		}); n > float64(returned) {
			t.Errorf("a pass of In and Out allocates %.0f times, want at most the %d slices it returns", n, returned)
		}
	}
}

func TestFig2CriticalWorks(t *testing.T) {
	// The paper (§3): "there are four critical works 12, 11, 10, and 9 time
	// units long (including data transfer time) on fastest processor nodes".
	j := fig2Job(t)
	chains := j.AllChains(WeightFunc{})
	if len(chains) != 4 {
		t.Fatalf("got %d chains, want 4", len(chains))
	}
	wantLens := []simtime.Time{12, 11, 10, 9}
	wantPaths := [][]string{
		{"P1", "P2", "P4", "P6"},
		{"P1", "P2", "P5", "P6"},
		{"P1", "P3", "P4", "P6"},
		{"P1", "P3", "P5", "P6"},
	}
	for i, c := range chains {
		if c.Length != wantLens[i] {
			t.Errorf("chain %d length = %d, want %d", i, c.Length, wantLens[i])
		}
		for k, id := range c.Tasks {
			if got := j.Task(id).Name; got != wantPaths[i][k] {
				t.Errorf("chain %d task %d = %s, want %s", i, k, got, wantPaths[i][k])
			}
		}
	}
}

func TestLongestChainMatchesAllChains(t *testing.T) {
	j := fig2Job(t)
	c, ok := j.LongestChain(WeightFunc{}, nil)
	if !ok {
		t.Fatal("no chain found")
	}
	if c.Length != 12 {
		t.Errorf("LongestChain length = %d, want 12", c.Length)
	}
	if got := j.CriticalPathLength(WeightFunc{}); got != 12 {
		t.Errorf("CriticalPathLength = %d, want 12", got)
	}
}

func TestLongestChainWithExclusions(t *testing.T) {
	j := fig2Job(t)
	p2, _ := j.TaskByName("P2")
	// Excluding P2 removes both 12 and 11 chains; longest remaining full
	// chain is P1-P3-P4-P6 = 10.
	c, ok := j.LongestChain(WeightFunc{}, func(id TaskID) bool { return id != p2.ID })
	if !ok {
		t.Fatal("no chain found")
	}
	if c.Length != 10 {
		t.Errorf("length = %d, want 10", c.Length)
	}
	for _, id := range c.Tasks {
		if id == p2.ID {
			t.Error("excluded task appears in chain")
		}
	}
}

func TestLongestChainAllExcluded(t *testing.T) {
	j := fig2Job(t)
	if _, ok := j.LongestChain(WeightFunc{}, func(TaskID) bool { return false }); ok {
		t.Error("found chain with all tasks excluded")
	}
}

func TestLongestChainCustomWeights(t *testing.T) {
	j := fig2Job(t)
	// Zeroing transfers: critical work is the path maximizing task time
	// only: P1,P2,P4,P6 = 2+3+2+2 = 9.
	w := WeightFunc{Edge: func(Edge) simtime.Time { return 0 }}
	c, _ := j.LongestChain(w, nil)
	if c.Length != 9 {
		t.Errorf("weighted length = %d, want 9", c.Length)
	}
}

func TestLongestChainSingleTask(t *testing.T) {
	b := NewBuilder("single")
	b.Task("only", 7, 3)
	j := b.MustBuild()
	c, ok := j.LongestChain(WeightFunc{}, nil)
	if !ok || c.Length != 7 || len(c.Tasks) != 1 {
		t.Errorf("single-task chain = %+v ok=%v", c, ok)
	}
}

func TestCoarsenLinearChain(t *testing.T) {
	// A-B-C linear: collapses into a single macro task with summed time and
	// volume, no edges.
	b := NewBuilder("line").Deadline(50)
	b.Task("A", 2, 10)
	b.Task("B", 3, 20)
	b.Task("C", 4, 30)
	b.Edge("e1", "A", "B", 5, 1)
	b.Edge("e2", "B", "C", 5, 1)
	j := b.MustBuild()
	c, err := Coarsen(j)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTasks() != 1 || c.NumEdges() != 0 {
		t.Fatalf("coarse job has %d tasks %d edges", c.NumTasks(), c.NumEdges())
	}
	mt := c.Task(0)
	// 2+3+4 task time plus the two internal 5-tick handoffs.
	if mt.BaseTime != 19 || mt.Volume != 60 || mt.Name != "A+2" {
		t.Errorf("macro task = %+v, want A+2 with time 19 volume 60", mt)
	}
	if c.Deadline != 50 {
		t.Errorf("deadline not carried: %d", c.Deadline)
	}
}

func TestCoarsenFig2(t *testing.T) {
	// Fig. 2's diamond has no linear runs (P1 has 2 successors, P6 has 2
	// predecessors, middles have branching), so coarsening is identity in
	// shape.
	j := fig2Job(t)
	c, err := Coarsen(j)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTasks() != 6 {
		t.Errorf("fig2 coarse tasks = %d, want 6", c.NumTasks())
	}
	if c.NumEdges() != 8 {
		t.Errorf("fig2 coarse edges = %d, want 8", c.NumEdges())
	}
}

func TestCoarsenMixed(t *testing.T) {
	// Fork-join with a 2-run on one branch:
	//   S -> A -> B -> T  and  S -> C -> T
	// A-B is a linear run (A single succ, B single pred) => merges.
	b := NewBuilder("mixed")
	b.Task("S", 1, 1)
	b.Task("A", 2, 2)
	b.Task("B", 3, 3)
	b.Task("C", 4, 4)
	b.Task("T", 1, 1)
	b.Edge("e1", "S", "A", 1, 1)
	b.Edge("e2", "A", "B", 9, 9)
	b.Edge("e3", "B", "T", 1, 1)
	b.Edge("e4", "S", "C", 1, 1)
	b.Edge("e5", "C", "T", 1, 1)
	j := b.MustBuild()
	c, err := Coarsen(j)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTasks() != 4 {
		t.Fatalf("coarse tasks = %d, want 4 (S, A+B, C, T)", c.NumTasks())
	}
	if c.NumEdges() != 4 {
		t.Errorf("coarse edges = %d, want 4", c.NumEdges())
	}
	macro, ok := c.TaskByName("A+1")
	if !ok {
		t.Fatal("A and B not merged into one macro task A+1")
	}
	// 2+3 task time plus the internal 9-tick handoff.
	if macro.BaseTime != 14 || macro.Volume != 5 {
		t.Errorf("A+B macro = %+v, want time 14 volume 5", macro)
	}
}

// randomGraph draws a random layered DAG for property tests: the tasks and
// edges a Builder is fed, edges by endpoint ID.
func randomGraph(r *rng.Source, maxTasks int) ([]Task, []Edge) {
	n := r.IntBetween(1, maxTasks)
	tasks := make([]Task, n)
	for i := range tasks {
		name := "T" + string(rune('A'+i%26)) + string(rune('0'+i/26))
		tasks[i] = Task{ID: TaskID(i), Name: name, BaseTime: simtime.Time(r.IntBetween(1, 12)), Volume: int64(r.IntBetween(0, 40))}
	}
	// Edges only from lower to higher index: guaranteed acyclic.
	var edges []Edge
	for to := 1; to < n; to++ {
		for from := 0; from < to; from++ {
			if r.Bool(0.25) {
				edges = append(edges, Edge{
					Name: tasks[from].Name + ">" + tasks[to].Name, From: TaskID(from), To: TaskID(to),
					BaseTime: simtime.Time(r.IntBetween(0, 5)), Volume: int64(r.IntBetween(0, 10)),
				})
			}
		}
	}
	return tasks, edges
}

// feed adds the graph to a builder the way a caller would, by name.
func feed(b *Builder, tasks []Task, edges []Edge) *Builder {
	for _, t := range tasks {
		b.Task(t.Name, t.BaseTime, t.Volume)
	}
	for _, e := range edges {
		b.Edge(e.Name, tasks[e.From].Name, tasks[e.To].Name, e.BaseTime, e.Volume)
	}
	return b
}

// randomJob builds a random layered DAG for property tests.
func randomJob(r *rng.Source, maxTasks int) *Job {
	tasks, edges := randomGraph(r, maxTasks)
	return feed(NewBuilder("rand"), tasks, edges).MustBuild()
}

func TestQuickTopoOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		j := randomJob(rng.New(seed), 14)
		pos := make(map[TaskID]int)
		for i, id := range j.TopoOrder() {
			pos[id] = i
		}
		if len(pos) != j.NumTasks() {
			return false
		}
		for _, e := range j.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickLongestChainDominatesAllChains(t *testing.T) {
	// LongestChain must equal the max over the exhaustive enumeration.
	f := func(seed uint64) bool {
		j := randomJob(rng.New(seed), 9)
		all := j.AllChains(WeightFunc{})
		best, ok := j.LongestChain(WeightFunc{}, nil)
		if !ok {
			return len(all) == 0
		}
		if len(all) == 0 {
			return false
		}
		return best.Length == all[0].Length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickChainIsRealPath(t *testing.T) {
	// Every consecutive pair in the reported chain must be joined by an edge.
	f := func(seed uint64) bool {
		j := randomJob(rng.New(seed), 12)
		c, ok := j.LongestChain(WeightFunc{}, nil)
		if !ok {
			return false
		}
		for i := 0; i+1 < len(c.Tasks); i++ {
			found := false
			for _, e := range j.Out(c.Tasks[i]) {
				if e.To == c.Tasks[i+1] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCoarsenPreservesTotals(t *testing.T) {
	// Coarsening preserves total compute volume, never decreases total
	// base time (internal handoffs become serial time), and never
	// increases task or edge counts.
	f := func(seed uint64) bool {
		j := randomJob(rng.New(seed), 14)
		c, err := Coarsen(j)
		if err != nil {
			return false
		}
		if c.NumTasks() > j.NumTasks() || c.NumEdges() > j.NumEdges() {
			return false
		}
		if c.TotalVolume() != j.TotalVolume() {
			return false
		}
		var bt, cbt simtime.Time
		for _, tk := range j.Tasks() {
			bt += tk.BaseTime
		}
		for _, tk := range c.Tasks() {
			cbt += tk.BaseTime
		}
		return cbt >= bt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCoarsenAcyclicAndConsistent(t *testing.T) {
	// The macro tasks partition the original tasks: each is named after a
	// distinct original task heading its run, and the runs' lengths sum to
	// the task count.
	f := func(seed uint64) bool {
		j := randomJob(rng.New(seed), 14)
		c, err := Coarsen(j)
		if err != nil {
			return false
		}
		heads, tasks := map[string]bool{}, 0
		for _, tk := range c.Tasks() {
			head, extra, _ := strings.Cut(tk.Name, "+")
			if _, ok := j.TaskByName(head); !ok || heads[head] {
				return false
			}
			heads[head] = true
			tasks++
			if extra != "" {
				k, err := strconv.Atoi(extra)
				if err != nil || k < 1 {
					return false
				}
				tasks += k
			}
		}
		return tasks == j.NumTasks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// What follows is the job graph as it was before the flat layout — a copy of
// the builder's lists, one index slice per task and direction, Kahn's loop
// re-sorting its ready list at every step, a longest-chain search that
// allocates its four slices, a coarsening through maps — kept as the
// reference the flat Job is compared against. It is the old code, not a
// second design: change it only to follow a deliberate change of behaviour.

type refJob struct {
	name     string
	deadline simtime.Time
	tasks    []Task
	edges    []Edge
	succ     [][]int // task -> indices into edges (outgoing)
	pred     [][]int // task -> indices into edges (incoming)
	topo     []TaskID
}

func refBuild(name string, deadline simtime.Time, tasks []Task, edges []Edge) (*refJob, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("dag: job %q has no tasks", name)
	}
	j := &refJob{
		name: name, deadline: deadline,
		tasks: append([]Task(nil), tasks...),
		edges: append([]Edge(nil), edges...),
	}
	j.succ = make([][]int, len(j.tasks))
	j.pred = make([][]int, len(j.tasks))
	for i, e := range j.edges {
		j.succ[e.From] = append(j.succ[e.From], i)
		j.pred[e.To] = append(j.pred[e.To], i)
	}
	indeg := make([]int, len(j.tasks))
	for _, e := range j.edges {
		indeg[e.To]++
	}
	var ready []TaskID
	for id := range j.tasks {
		if indeg[id] == 0 {
			ready = append(ready, TaskID(id))
		}
	}
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool { return ready[a] < ready[b] })
		id := ready[0]
		ready = ready[1:]
		j.topo = append(j.topo, id)
		for _, ei := range j.succ[id] {
			to := j.edges[ei].To
			indeg[to]--
			if indeg[to] == 0 {
				ready = append(ready, to)
			}
		}
	}
	if len(j.topo) != len(j.tasks) {
		for id, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("dag: job %q has a cycle through task %q", name, j.tasks[id].Name)
			}
		}
	}
	return j, nil
}

func (j *refJob) in(id TaskID) []Edge {
	var out []Edge
	for _, ei := range j.pred[id] {
		out = append(out, j.edges[ei])
	}
	return out
}

func (j *refJob) out(id TaskID) []Edge {
	var out []Edge
	for _, ei := range j.succ[id] {
		out = append(out, j.edges[ei])
	}
	return out
}

func (j *refJob) longestChain(w WeightFunc, include func(TaskID) bool) (Chain, bool) {
	incl := func(id TaskID) bool { return include == nil || include(id) }
	dist := make([]simtime.Time, len(j.tasks))
	prev := make([]int, len(j.tasks))
	any := false
	for i := range prev {
		prev[i] = -1
		dist[i] = -1
	}
	refBetter := func(old, cand int) bool { return old != -1 && cand < old }
	for _, id := range j.topo {
		if !incl(id) {
			continue
		}
		any = true
		base := j.tasks[id].BaseTime
		if dist[id] < base {
			dist[id] = base
			prev[id] = -1
		}
		for _, ei := range j.succ[id] {
			e := j.edges[ei]
			if !incl(e.To) {
				continue
			}
			cand := dist[id] + w.edge(e) + j.tasks[e.To].BaseTime
			if cand > dist[e.To] || (cand == dist[e.To] && refBetter(prev[e.To], int(id))) {
				dist[e.To] = cand
				prev[e.To] = int(id)
			}
		}
	}
	if !any {
		return Chain{}, false
	}
	best := -1
	for id := range j.tasks {
		if !incl(TaskID(id)) || dist[id] < 0 {
			continue
		}
		if best == -1 || dist[id] > dist[best] || (dist[id] == dist[best] && id < best) {
			best = id
		}
	}
	var rev []TaskID
	for cur := best; cur != -1; cur = prev[cur] {
		rev = append(rev, TaskID(cur))
	}
	tasks := make([]TaskID, len(rev))
	for i := range rev {
		tasks[i] = rev[len(rev)-1-i]
	}
	return Chain{Tasks: tasks, Length: dist[best]}, true
}

// refCoarsen returns the coarse graph.
func refCoarsen(j *refJob) (*refJob, error) {
	n := len(j.tasks)
	mergeWithPred := make([]bool, n)
	for id := 0; id < n; id++ {
		in := j.in(TaskID(id))
		if len(in) != 1 {
			continue
		}
		if len(j.out(in[0].From)) == 1 {
			mergeWithPred[id] = true
		}
	}
	rep := make([]TaskID, n)
	for _, id := range j.topo {
		if mergeWithPred[id] {
			rep[id] = rep[j.in(id)[0].From]
		} else {
			rep[id] = id
		}
	}
	members := make(map[TaskID][]TaskID)
	for _, id := range j.topo {
		members[rep[id]] = append(members[rep[id]], id)
	}
	var tasks []Task
	macroOf := make(map[TaskID]TaskID)
	for _, id := range j.topo {
		if rep[id] != id {
			continue
		}
		var bt simtime.Time
		var vol int64
		for i, m := range members[id] {
			t := j.tasks[m]
			bt += t.BaseTime
			vol += t.Volume
			if i > 0 {
				for _, e := range j.in(m) {
					if e.From == members[id][i-1] {
						bt += e.BaseTime
						break
					}
				}
			}
		}
		name := j.tasks[id].Name
		if len(members[id]) > 1 {
			name = fmt.Sprintf("%s+%d", name, len(members[id])-1)
		}
		mid := TaskID(len(tasks))
		tasks = append(tasks, Task{ID: mid, Name: name, BaseTime: bt, Volume: vol})
		macroOf[id] = mid
	}
	type key struct{ f, t TaskID }
	acc := make(map[key]*Edge)
	var order []key
	for _, e := range j.edges {
		rf, rt := rep[e.From], rep[e.To]
		if rf == rt {
			continue
		}
		k := key{rf, rt}
		if a, ok := acc[k]; ok {
			a.BaseTime += e.BaseTime
			a.Volume += e.Volume
			a.Name += "+" + e.Name
		} else {
			ec := e
			acc[k] = &ec
			order = append(order, k)
		}
	}
	var edges []Edge
	for _, k := range order {
		e := *acc[k]
		e.From, e.To = macroOf[k.f], macroOf[k.t]
		edges = append(edges, e)
	}
	return refBuild(j.name+"/coarse", j.deadline, tasks, edges)
}

// sameEdges compares edge lists element by element; nil and empty agree.
func sameEdges(a, b []Edge) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// sameGraph reports where j departs from ref, by every way there is of
// reading a Job's graph.
func sameGraph(j *Job, ref *refJob) error {
	if j.Name != ref.name || j.Deadline != ref.deadline {
		return fmt.Errorf("job %q deadline %d, reference %q deadline %d", j.Name, j.Deadline, ref.name, ref.deadline)
	}
	if j.NumTasks() != len(ref.tasks) || !reflect.DeepEqual(j.Tasks(), ref.tasks) {
		return fmt.Errorf("Tasks = %v, reference %v", j.Tasks(), ref.tasks)
	}
	if j.NumEdges() != len(ref.edges) || !sameEdges(j.Edges(), ref.edges) {
		return fmt.Errorf("Edges = %v, reference %v", j.Edges(), ref.edges)
	}
	for i, e := range ref.edges {
		if j.EdgeAt(i) != e {
			return fmt.Errorf("EdgeAt(%d) = %v, reference %v", i, j.EdgeAt(i), e)
		}
	}
	if !reflect.DeepEqual(j.TopoOrder(), ref.topo) {
		return fmt.Errorf("TopoOrder = %v, reference %v", j.TopoOrder(), ref.topo)
	}
	var sources []TaskID
	for i, t := range ref.tasks {
		id := TaskID(i)
		if j.Task(id) != t {
			return fmt.Errorf("Task(%d) = %v, reference %v", id, j.Task(id), t)
		}
		if j.TopoAt(i) != ref.topo[i] {
			return fmt.Errorf("TopoAt(%d) = %d, reference %d", i, j.TopoAt(i), ref.topo[i])
		}
		in, out := ref.in(id), ref.out(id)
		if len(in) == 0 {
			sources = append(sources, id)
		}
		if !sameEdges(j.In(id), in) || !sameEdges(j.Out(id), out) {
			return fmt.Errorf("task %d: In %v Out %v, reference %v %v", id, j.In(id), j.Out(id), in, out)
		}
		// The index runs name the same edges in the same order, and an
		// append to one cannot write into the job's next run.
		for _, r := range []struct {
			run  []int32
			want []Edge
		}{{j.InIdx(id), in}, {j.OutIdx(id), out}} {
			var got []Edge
			for _, e := range r.run {
				got = append(got, j.EdgeAt(int(e)))
			}
			if !sameEdges(got, r.want) || cap(r.run) != len(r.run) {
				return fmt.Errorf("task %d: index run %v (cap %d) reads %v, reference %v", id, r.run, cap(r.run), got, r.want)
			}
		}
	}
	if !reflect.DeepEqual(j.Sources(), sources) {
		return fmt.Errorf("Sources %v, reference %v", j.Sources(), sources)
	}
	return nil
}

// sameChains runs the longest-chain search the ways the scheduler does —
// over all tasks, then again and again over the tasks no earlier chain took
// (the critical works phase loop), and under arbitrary filters — with base
// and with custom weights, through LongestChain and through one reused
// ChainBuf, against the reference search.
func sameChains(j *Job, ref *refJob, r *rng.Source) error {
	custom := WeightFunc{Edge: func(e Edge) simtime.Time { return e.BaseTime / 2 }}
	var buf ChainBuf
	check := func(w WeightFunc, include func(TaskID) bool) (Chain, bool, error) {
		want, wantOK := ref.longestChain(w, include)
		got, ok := j.LongestChain(w, include)
		if ok != wantOK || got.Length != want.Length || !reflect.DeepEqual(got.Tasks, want.Tasks) {
			return want, wantOK, fmt.Errorf("LongestChain = %v %v, reference %v %v", got, ok, want, wantOK)
		}
		got, ok = j.LongestChainBuf(&buf, w, include)
		if ok != wantOK || got.Length != want.Length || (ok && !reflect.DeepEqual(got.Tasks, want.Tasks)) {
			return want, wantOK, fmt.Errorf("LongestChainBuf = %v %v, reference %v %v", got, ok, want, wantOK)
		}
		return want, wantOK, nil
	}
	for _, w := range []WeightFunc{{}, custom} {
		whole, _ := ref.longestChain(w, nil) // a job has a task, so a chain
		if got := j.CriticalPathLength(w); got != whole.Length {
			return fmt.Errorf("CriticalPathLength = %d, reference %d", got, whole.Length)
		}
		taken := make([]bool, len(ref.tasks))
		left := func(id TaskID) bool { return !taken[id] }
		for {
			c, ok, err := check(w, left)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			for _, id := range c.Tasks {
				taken[id] = true
			}
		}
		for k := 0; k < 4; k++ {
			for i := range taken {
				taken[i] = r.Bool(0.4)
			}
			if _, _, err := check(w, left); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckAgainstReference fails t where j — its graph, its chain searches, its
// coarsening and that coarsening's graph — departs from the reference built
// from the same tasks and edges. Exported for the workload corpus, which this
// package cannot import.
func CheckAgainstReference(t *testing.T, j *Job) {
	t.Helper()
	ref, err := refBuild(j.Name, j.Deadline, j.Tasks(), j.Edges())
	if err != nil {
		t.Fatalf("%s: reference build: %v", j.Name, err)
	}
	if err := sameGraph(j, ref); err != nil {
		t.Fatalf("%s: %v", j.Name, err)
	}
	if err := sameChains(j, ref, rng.New(uint64(j.NumTasks())<<16|uint64(j.NumEdges()))); err != nil {
		t.Fatalf("%s: %v", j.Name, err)
	}
	c, err := Coarsen(j)
	if err != nil {
		t.Fatalf("%s: Coarsen: %v", j.Name, err)
	}
	cref, err := refCoarsen(ref)
	if err != nil {
		t.Fatalf("%s: reference coarsening: %v", j.Name, err)
	}
	if err := sameGraph(c, cref); err != nil {
		t.Fatalf("%s: coarse job: %v", j.Name, err)
	}
}

// TestFlatJobMatchesReference: over Fig. 2 and the property tests' random
// graphs at every size they use, the job a Builder makes holds the tasks and
// edges it was fed and agrees with the reference on everything derived from
// them. (The workload.Default corpus runs through the same check in
// corpus_test.go.)
func TestFlatJobMatchesReference(t *testing.T) {
	CheckAgainstReference(t, fig2Job(t))
	for _, maxTasks := range []int{8, 9, 12, 14, 40} {
		for seed := uint64(1); seed <= 150; seed++ {
			r := rng.New(seed)
			tasks, edges := randomGraph(r, maxTasks)
			// Every third graph doubles some transfers: parallel edges are
			// legal, and the only way two edges join one pair of macro tasks.
			for i, m := 0, len(edges); seed%3 == 0 && i < m; i++ {
				if e := edges[i]; r.Bool(0.3) {
					e.Name += "'"
					e.BaseTime += simtime.Time(r.IntBetween(0, 3))
					edges = append(edges, e)
				}
			}
			j := feed(NewBuilder("rand").Deadline(simtime.Time(seed)), tasks, edges).MustBuild()
			if !reflect.DeepEqual(j.Tasks(), tasks) || !sameEdges(j.Edges(), edges) {
				t.Fatalf("seed %d: the job does not hold what the builder was fed", seed)
			}
			CheckAgainstReference(t, j)
		}
	}
}

// TestCriticalPathLengthAllocs: the whole-job chain search runs in pooled
// memory, so once it has served a job that large it allocates nothing,
// under any weights.
func TestCriticalPathLengthAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the pin runs in CI's step without -race")
	}
	noEdges := WeightFunc{Edge: func(Edge) simtime.Time { return 0 }}
	for _, j := range []*Job{fig2Job(t), randomJob(rng.New(3), 40)} {
		j.CriticalPathLength(WeightFunc{})
		for _, w := range []WeightFunc{{}, noEdges} {
			if allocs := testing.AllocsPerRun(100, func() { j.CriticalPathLength(w) }); allocs != 0 {
				t.Errorf("%s: %.0f allocs per CriticalPathLength, want 0", j.Name, allocs)
			}
		}
	}
}

// TestWithDeadlineAllocs: WithDeadline copies the job's header — name,
// deadline and the graph pointer, four words — and shares the graph, so a
// copy of a 40-task job is one allocation no larger than that header. The
// bytes are MemStats.TotalAlloc's, the counter testing.Benchmark's
// AllocedBytesPerOp reads, without its one-second run. A Job that held its
// lists and adjacency by value copied 192 bytes here.
func TestWithDeadlineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations; the pin runs in CI's step without -race")
	}
	header := unsafe.Sizeof(Job{})
	if header != 4*unsafe.Sizeof(uintptr(0)) {
		t.Errorf("a Job is %d bytes, want four words: its name, deadline and graph pointer", header)
	}
	b := NewBuilder("chain").Deadline(500)
	prev := b.Task("T0", 1, 1)
	for i := 1; i < 40; i++ {
		id := b.Task("T"+strconv.Itoa(i), 1, 1)
		b.Link("D"+strconv.Itoa(i), prev, id, 1, 1)
		prev = id
	}
	j := b.MustBuild()
	var sink *Job
	if allocs := testing.AllocsPerRun(100, func() { sink = j.WithDeadline(7) }); allocs != 1 {
		t.Errorf("%.0f allocations per WithDeadline, want 1 (the header)", allocs)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		sink = j.WithDeadline(simtime.Time(i))
	}
	runtime.ReadMemStats(&after)
	if perCopy := (after.TotalAlloc - before.TotalAlloc) / n; perCopy > uint64(header) {
		t.Errorf("%d bytes per WithDeadline on a %d-task job, want at most %d", perCopy, j.NumTasks(), header)
	}
	if sink.graph != j.graph || sink.Name != j.Name {
		t.Errorf("WithDeadline's copy does not share the job's graph")
	}
}

// TestGraphHoldsNoPointers: a job's graph is one string and two slabs of
// integers — the weights as int64, the indices and name offsets as int32 —
// so the garbage collector scans none of a retained graph but its three
// headers. A graph that held a Task per task and an Edge per edge held a
// pointer per name.
func TestGraphHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(graph{})
	var fields []string
	for i := range typ.NumField() {
		fields = append(fields, typ.Field(i).Type.String())
	}
	if want := []string{"string", "[]int64", "[]int32"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("the graph's fields are %v, want %v: one string of names, then the int64 and int32 slabs", fields, want)
	}
}

// TestBuilderReuseLeavesBuiltJobsAlone: Build hands the builder's lists to
// the job without a copy, so whatever the builder does next — more tasks and
// edges, another Build — must leave the first job as it was, sized lists
// (Grow) or grown ones.
func TestBuilderReuseLeavesBuiltJobsAlone(t *testing.T) {
	for _, sized := range []bool{false, true} {
		tasks, edges := randomGraph(rng.New(7), 12)
		b := NewBuilder("first")
		if sized {
			b.Grow(len(tasks)+4, len(edges)+4) // room to spare: an append would fit in place
		}
		first := feed(b, tasks, edges).MustBuild()
		want, err := refBuild("first", 0, tasks, edges)
		if err != nil {
			t.Fatal(err)
		}

		b.Task("late-1", 3, 3)
		b.Task("late-2", 4, 4)
		b.Edge("late", "late-1", "late-2", 1, 1)
		b.Edge("late-in", tasks[0].Name, "late-1", 2, 2)
		second := b.MustBuild()
		if err := sameGraph(first, want); err != nil {
			t.Fatalf("sized=%v: the first job changed under the builder: %v", sized, err)
		}
		CheckAgainstReference(t, first)
		if second.NumTasks() != len(tasks)+2 || second.NumEdges() != len(edges)+2 {
			t.Fatalf("sized=%v: second job has %d tasks, %d edges", sized, second.NumTasks(), second.NumEdges())
		}
		CheckAgainstReference(t, second)

		// A third build of the unchanged builder shares the second's lists;
		// both stay whole when the builder moves on again.
		third := b.MustBuild()
		b.Task("later", 1, 1)
		for _, j := range []*Job{second, third} {
			if j.NumTasks() != len(tasks)+2 {
				t.Fatalf("sized=%v: a later Task reached a built job", sized)
			}
			CheckAgainstReference(t, j)
		}
	}
}
