package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/resource"
)

func TestEnvironmentShape(t *testing.T) {
	g := New(Default(1))
	env := g.Environment(3)
	if n := env.NumNodes(); n < 20 || n > 30 {
		t.Errorf("node count = %d, want 20..30 (§4)", n)
	}
	// All three paper groups must be populated.
	groups := map[resource.Group]int{}
	for _, n := range env.Nodes() {
		groups[n.Group()]++
	}
	for _, grp := range []resource.Group{resource.GroupFast, resource.GroupMedium, resource.GroupSlow} {
		if groups[grp] == 0 {
			t.Errorf("group %v empty", grp)
		}
	}
	// All four estimation tiers must be reachable so every strategy level
	// has candidates.
	tiers := map[resource.Tier]int{}
	for _, n := range env.Nodes() {
		tiers[n.Tier()]++
	}
	for k := resource.Tier(1); k <= resource.NumTiers; k++ {
		if tiers[k] == 0 {
			t.Errorf("tier %d unpopulated: %v", k, tiers)
		}
	}
	if len(env.Domains()) != 3 {
		t.Errorf("domains = %v", env.Domains())
	}
}

func TestEnvironmentDeterministic(t *testing.T) {
	a := New(Default(7)).Environment(2)
	b := New(Default(7)).Environment(2)
	if a.NumNodes() != b.NumNodes() {
		t.Fatal("node counts differ for same seed")
	}
	for i := 0; i < a.NumNodes(); i++ {
		na, nb := a.Node(resource.NodeID(i)), b.Node(resource.NodeID(i))
		if na.Perf != nb.Perf || na.Domain != nb.Domain {
			t.Fatalf("node %d differs: %+v vs %+v", i, na, nb)
		}
	}
}

func TestJobShape(t *testing.T) {
	g := New(Default(3))
	job := g.Job(0)
	if job.NumTasks() < 3 {
		t.Errorf("tasks = %d", job.NumTasks())
	}
	if len(job.Sources()) == 0 {
		t.Error("no sources")
	}
	cp := job.CriticalPathLength(dag.WeightFunc{})
	if job.Deadline <= cp {
		t.Errorf("deadline %d not beyond critical path %d", job.Deadline, cp)
	}
}

func TestJobSpreadWithinConfig(t *testing.T) {
	cfg := Default(5)
	g := New(cfg)
	for i := 0; i < 50; i++ {
		job := g.Job(i)
		for _, task := range job.Tasks() {
			if task.BaseTime < baseTimeLo || task.BaseTime > baseTimeHi {
				t.Fatalf("task base time %d outside [%d,%d]", task.BaseTime, baseTimeLo, baseTimeHi)
			}
			if task.Volume < volumeLo || task.Volume > volumeHi {
				t.Fatalf("task volume %d outside bounds", task.Volume)
			}
		}
		for _, e := range job.Edges() {
			if e.BaseTime < cfg.TransferLo || e.BaseTime > cfg.TransferHi {
				t.Fatalf("transfer time %d outside bounds", e.BaseTime)
			}
		}
	}
}

func TestJobsDiffer(t *testing.T) {
	g := New(Default(9))
	a, b := g.Job(1), g.Job(2)
	if a.NumTasks() == b.NumTasks() && a.NumEdges() == b.NumEdges() && a.Deadline == b.Deadline {
		// Same shape can legitimately collide; require some difference in
		// task parameters then.
		same := true
		for i := 0; i < a.NumTasks(); i++ {
			if a.Task(dag.TaskID(i)).BaseTime != b.Task(dag.TaskID(i)).BaseTime {
				same = false
				break
			}
		}
		if same {
			t.Error("jobs 1 and 2 are identical")
		}
	}
}

func TestJobDeterministicByIndex(t *testing.T) {
	a := New(Default(11)).Job(42)
	b := New(Default(11)).Job(42)
	if a.NumTasks() != b.NumTasks() || a.Deadline != b.Deadline {
		t.Fatal("same-index jobs differ")
	}
	for i := 0; i < a.NumTasks(); i++ {
		if a.Task(dag.TaskID(i)) != b.Task(dag.TaskID(i)) {
			t.Fatal("task parameters differ")
		}
	}
}

func TestFlow(t *testing.T) {
	g := New(Default(13))
	flow := g.Flow(0, 20, 100)
	if len(flow) != 20 {
		t.Fatalf("flow length = %d", len(flow))
	}
	last := flow[0].At
	if last < 100 {
		t.Errorf("first arrival %d before start", last)
	}
	for _, a := range flow[1:] {
		if a.At < last {
			t.Error("arrivals not monotone")
		}
		last = a.At
	}
	// Streams are decorrelated.
	other := g.Flow(1, 20, 100)
	if other[0].At == flow[0].At && other[5].At == flow[5].At {
		t.Error("streams 0 and 1 look identical")
	}
}

func TestQuickJobsAlwaysValid(t *testing.T) {
	// Every generated job is a connected DAG with a feasible deadline and
	// non-degenerate parameters.
	f := func(seed uint64, idx uint16) bool {
		g := New(Default(seed))
		job := g.Job(int(idx % 500))
		if job.NumTasks() == 0 {
			return false
		}
		// Weak connectivity: every non-source task has an in-edge, every
		// non-sink an out-edge, and there is exactly one source layer
		// element (layer 0 has width 1).
		sinks := 0
		for i := 0; i < job.NumTasks(); i++ {
			if len(job.Out(dag.TaskID(i))) == 0 {
				sinks++
			}
		}
		if len(job.Sources()) != 1 || sinks != 1 {
			return false
		}
		cp := job.CriticalPathLength(dag.WeightFunc{})
		return job.Deadline > cp && cp > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestGeneratorJobAllocs: a corpus job is drawn in pooled scratch and built
// by task index, so what it allocates is the job's own memory (task and edge
// lists, the Job, its CSR slab), Build's working memory and the job's name.
// The P and D names come from the scratch's name tables, cut anew only when a
// job outgrows them, and the deadline is set on the built job in place. The
// ceiling is the measured count; it was 10 while every call cut two name
// strings and copied the job to carry its deadline, and the generator that
// resolved names through maps made 95–98.
func TestGeneratorJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the pin runs in CI's step without -race")
	}
	const ceiling = 6
	g := New(Default(1))
	g.Job(0)
	i := 0
	if allocs := testing.AllocsPerRun(200, func() { g.Job(i); i++ }); allocs > ceiling {
		t.Errorf("%.1f allocs per Job, ceiling %d", allocs, ceiling)
	}
}
