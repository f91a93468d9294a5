package dag

import (
	"testing"
	"testing/quick"

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
		{"dup task", func() {
			b := NewBuilder("x")
			b.Task("A", 1, 1)
			b.Task("A", 1, 1)
		}},
		{"zero base time", func() { NewBuilder("x").Task("A", 0, 1) }},
		{"negative volume", func() { NewBuilder("x").Task("A", 1, -1) }},
		{"unknown edge endpoint", func() {
			b := NewBuilder("x")
			b.Task("A", 1, 1)
			b.Edge("e", "A", "B", 1, 1)
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
	if s := j.Sinks(); len(s) != 1 || j.Task(s[0]).Name != "P6" {
		t.Errorf("Sinks = %v", s)
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

// TestAppendInOutMatchInOut checks the allocation-free edge accessors
// against In/Out and against an independent derivation (the edge list
// filtered by endpoint), on Fig. 2 and on random DAGs: same edges, same
// order, appended after whatever dst already held, and no allocation once
// the buffer has grown.
func TestAppendInOutMatchInOut(t *testing.T) {
	jobs := []*Job{fig2Job(t)}
	for seed := uint64(1); seed <= 40; seed++ {
		jobs = append(jobs, randomJob(rng.New(seed), 8))
	}
	sentinel := Edge{Name: "sentinel"}
	for _, j := range jobs {
		buf, buf2 := make([]Edge, 0, j.NumEdges()+1), make([]Edge, 0, j.NumEdges()+1)
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
				name        string
				got, legacy []Edge
				want        []Edge
			}{
				{"AppendIn", j.AppendIn(append(buf[:0], sentinel), id), j.In(id), wantIn},
				{"AppendOut", j.AppendOut(append(buf2[:0], sentinel), id), j.Out(id), wantOut},
			} {
				if tc.got[0] != sentinel {
					t.Fatalf("%s(%d) overwrote dst's contents", tc.name, id)
				}
				got := tc.got[1:]
				if len(got) != len(tc.want) || len(tc.legacy) != len(tc.want) {
					t.Fatalf("%s(%d) = %v, In/Out = %v, want %v", tc.name, id, got, tc.legacy, tc.want)
				}
				for k := range tc.want {
					if got[k] != tc.want[k] || tc.legacy[k] != tc.want[k] {
						t.Fatalf("%s(%d)[%d] = %v, In/Out %v, want %v", tc.name, id, k, got[k], tc.legacy[k], tc.want[k])
					}
				}
			}
		}
		if n := testing.AllocsPerRun(10, func() {
			for id := TaskID(0); int(id) < j.NumTasks(); id++ {
				buf = j.AppendIn(buf[:0], id)
				buf = j.AppendOut(buf[:0], id)
			}
		}); n != 0 {
			t.Errorf("edge walks over a reused buffer allocate %.0f times per pass", n)
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
	// Doubling every task time and zeroing transfers: critical work is the
	// path maximizing task time only: P1,P2,P4,P6 = 2*(2+3+2+2)=18.
	w := WeightFunc{
		Task: func(tk Task) simtime.Time { return 2 * tk.BaseTime },
		Edge: func(Edge) simtime.Time { return 0 },
	}
	c, _ := j.LongestChain(w, nil)
	if c.Length != 18 {
		t.Errorf("weighted length = %d, want 18", c.Length)
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
	if c.Job.NumTasks() != 1 || c.Job.NumEdges() != 0 {
		t.Fatalf("coarse job has %d tasks %d edges", c.Job.NumTasks(), c.Job.NumEdges())
	}
	mt := c.Job.Task(0)
	// 2+3+4 task time plus the two internal 5-tick handoffs.
	if mt.BaseTime != 19 || mt.Volume != 60 {
		t.Errorf("macro task = %+v, want time 19 volume 60", mt)
	}
	if c.Job.Deadline != 50 {
		t.Errorf("deadline not carried: %d", c.Job.Deadline)
	}
	if len(c.Members[0]) != 3 {
		t.Errorf("members = %v", c.Members[0])
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
	if c.Job.NumTasks() != 6 {
		t.Errorf("fig2 coarse tasks = %d, want 6", c.Job.NumTasks())
	}
	if c.Job.NumEdges() != 8 {
		t.Errorf("fig2 coarse edges = %d, want 8", c.Job.NumEdges())
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
	if c.Job.NumTasks() != 4 {
		t.Fatalf("coarse tasks = %d, want 4 (S, A+B, C, T)", c.Job.NumTasks())
	}
	if c.Job.NumEdges() != 4 {
		t.Errorf("coarse edges = %d, want 4", c.Job.NumEdges())
	}
	a, _ := j.TaskByName("A")
	bID, _ := j.TaskByName("B")
	if c.Macro[a.ID] != c.Macro[bID.ID] {
		t.Error("A and B not merged into the same macro task")
	}
	macro := c.Job.Task(c.Macro[a.ID])
	// 2+3 task time plus the internal 9-tick handoff.
	if macro.BaseTime != 14 || macro.Volume != 5 {
		t.Errorf("A+B macro = %+v, want time 14 volume 5", macro)
	}
}

// randomJob builds a random layered DAG for property tests.
func randomJob(r *rng.Source, maxTasks int) *Job {
	n := r.IntBetween(1, maxTasks)
	b := NewBuilder("rand")
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = "T" + string(rune('A'+i%26)) + string(rune('0'+i/26))
		b.Task(names[i], simtime.Time(r.IntBetween(1, 12)), int64(r.IntBetween(0, 40)))
	}
	// Edges only from lower to higher index: guaranteed acyclic.
	for to := 1; to < n; to++ {
		for from := 0; from < to; from++ {
			if r.Bool(0.25) {
				b.Edge(names[from]+">"+names[to], names[from], names[to],
					simtime.Time(r.IntBetween(0, 5)), int64(r.IntBetween(0, 10)))
			}
		}
	}
	return b.MustBuild()
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
		if c.Job.NumTasks() > j.NumTasks() || c.Job.NumEdges() > j.NumEdges() {
			return false
		}
		if c.Job.TotalVolume() != j.TotalVolume() {
			return false
		}
		var bt, cbt simtime.Time
		for _, tk := range j.Tasks() {
			bt += tk.BaseTime
		}
		for _, tk := range c.Job.Tasks() {
			cbt += tk.BaseTime
		}
		if cbt < bt {
			return false
		}
		// Every original task maps to a valid macro task.
		for id := 0; id < j.NumTasks(); id++ {
			m, ok := c.Macro[TaskID(id)]
			if !ok || int(m) >= c.Job.NumTasks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCoarsenAcyclicAndConsistent(t *testing.T) {
	// Macro membership partitions the original tasks.
	f := func(seed uint64) bool {
		j := randomJob(rng.New(seed), 14)
		c, err := Coarsen(j)
		if err != nil {
			return false
		}
		seen := make(map[TaskID]bool)
		for _, ms := range c.Members {
			for _, m := range ms {
				if seen[m] {
					return false
				}
				seen[m] = true
			}
		}
		return len(seen) == j.NumTasks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
