package jobio

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/workload"
)

func TestJobRoundTrip(t *testing.T) {
	b := dag.NewBuilder("rt").Deadline(42)
	b.Task("A", 2, 10)
	b.Task("B", 3, 20)
	b.Edge("e", "A", "B", 1, 5)
	orig := b.MustBuild()

	wire := FromJob(orig)
	back, err := wire.ToJob()
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.Deadline != orig.Deadline {
		t.Errorf("metadata lost: %s/%d", back.Name, back.Deadline)
	}
	if back.NumTasks() != orig.NumTasks() || back.NumEdges() != orig.NumEdges() {
		t.Errorf("shape lost: %d/%d", back.NumTasks(), back.NumEdges())
	}
	for i := 0; i < orig.NumTasks(); i++ {
		if orig.Task(dag.TaskID(i)) != back.Task(dag.TaskID(i)) {
			t.Errorf("task %d differs", i)
		}
	}
}

func TestToJobValidation(t *testing.T) {
	cases := []struct {
		name string
		job  Job
	}{
		{"no tasks", Job{Name: "x"}},
		{"bad task time", Job{Name: "x", Tasks: []Task{{Name: "A", BaseTime: 0, Volume: 1}}}},
		{"unknown edge endpoint", Job{Name: "x",
			Tasks: []Task{{Name: "A", BaseTime: 1, Volume: 1}},
			Edges: []Edge{{Name: "e", From: "A", To: "Z", BaseTime: 1}}}},
		{"cycle", Job{Name: "x",
			Tasks: []Task{{Name: "A", BaseTime: 1}, {Name: "B", BaseTime: 1}},
			Edges: []Edge{{Name: "e1", From: "A", To: "B", BaseTime: 1},
				{Name: "e2", From: "B", To: "A", BaseTime: 1}}}},
		{"duplicate task", Job{Name: "x",
			Tasks: []Task{{Name: "A", BaseTime: 1}, {Name: "A", BaseTime: 1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.job.ToJob(); err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		})
	}
}

func TestValidatePreciseErrors(t *testing.T) {
	// Each malformed wire job must be rejected with an error that names the
	// offending task or edge — the service relays these verbatim to clients.
	task := func(name string) Task { return Task{Name: name, BaseTime: 1, Volume: 1} }
	cases := []struct {
		name string
		job  Job
		want string
	}{
		{"job named .", Job{Name: ".", Tasks: []Task{task("A")}}, `job name "." cannot be addressed`},
		{"job named ..", Job{Name: "..", Tasks: []Task{task("A")}}, `job name ".." cannot be addressed`},
		{"negative deadline", Job{Name: "x", Deadline: -1, Tasks: []Task{task("A")}}, "negative deadline"},
		{"empty task name", Job{Name: "x", Tasks: []Task{{BaseTime: 1, Volume: 1}}}, "empty name"},
		{"duplicate task", Job{Name: "x", Tasks: []Task{task("A"), task("A")}}, `duplicate task name "A"`},
		{"zero base time", Job{Name: "x", Tasks: []Task{{Name: "A", Volume: 1}}}, `task "A" has non-positive base time`},
		{"negative base time", Job{Name: "x", Tasks: []Task{{Name: "A", BaseTime: -2, Volume: 1}}}, `task "A" has non-positive base time`},
		{"zero volume", Job{Name: "x", Tasks: []Task{{Name: "A", BaseTime: 1}}}, `task "A" has non-positive volume`},
		{"dangling from", Job{Name: "x", Tasks: []Task{task("A")},
			Edges: []Edge{{Name: "e", From: "Z", To: "A"}}}, `edge "e" references unknown task "Z"`},
		{"dangling to", Job{Name: "x", Tasks: []Task{task("A")},
			Edges: []Edge{{Name: "e", From: "A", To: "Z"}}}, `edge "e" references unknown task "Z"`},
		{"self loop", Job{Name: "x", Tasks: []Task{task("A")},
			Edges: []Edge{{Name: "e", From: "A", To: "A"}}}, "self-loop"},
		{"negative edge time", Job{Name: "x", Tasks: []Task{task("A"), task("B")},
			Edges: []Edge{{Name: "e", From: "A", To: "B", BaseTime: -1}}}, `edge "e" has negative base time`},
		{"negative edge volume", Job{Name: "x", Tasks: []Task{task("A"), task("B")},
			Edges: []Edge{{Name: "e", From: "A", To: "B", Volume: -1}}}, `edge "e" has negative volume`},
		{"unnamed edge", Job{Name: "x", Tasks: []Task{task("A")},
			Edges: []Edge{{From: "A", To: "Z"}}}, `edge "#0" references unknown task "Z"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.job.Validate()
			if err == nil {
				t.Fatalf("accepted malformed job")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if _, err := tc.job.ToJob(); err == nil {
				t.Errorf("ToJob accepted what Validate rejected")
			}
		})
	}
}

func TestJobsStreamRoundTrip(t *testing.T) {
	gen := workload.New(workload.Default(3))
	var wire []Job
	for i := 0; i < 5; i++ {
		wire = append(wire, FromJob(gen.Job(i)))
	}
	var buf bytes.Buffer
	if err := WriteJobs(&buf, wire); err != nil {
		t.Fatal(err)
	}
	jobs, err := ReadJobs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 5 {
		t.Fatalf("read %d jobs", len(jobs))
	}
	for i, j := range jobs {
		orig := gen.Job(i)
		if j.NumTasks() != orig.NumTasks() || j.Deadline != orig.Deadline {
			t.Errorf("job %d mismatch", i)
		}
	}
}

func TestReadJobsRejectsGarbage(t *testing.T) {
	if _, err := ReadJobs(strings.NewReader("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJobs(strings.NewReader(`[{"name":"x","tasks":[]}]`)); err == nil {
		t.Error("empty job accepted")
	}
}

func TestEnvironmentRoundTrip(t *testing.T) {
	gen := workload.New(workload.Default(7))
	env := gen.Environment(2)
	var buf bytes.Buffer
	if err := WriteEnvironment(&buf, env); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEnvironment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != env.NumNodes() {
		t.Fatalf("nodes %d vs %d", back.NumNodes(), env.NumNodes())
	}
	for i, n := range env.Nodes() {
		bn := back.Nodes()[i]
		if bn.Perf != n.Perf || bn.Domain != n.Domain || bn.Name != n.Name {
			t.Errorf("node %d differs", i)
		}
	}
	// A file written while nodes carried a price still reads; the price is
	// dropped.
	old, err := ReadEnvironment(strings.NewReader(`[{"name": "a", "performance": 0.5, "price": 0.5, "domain": "d"}]`))
	if err != nil || old.NumNodes() != 1 || old.Nodes()[0].Perf != 0.5 || old.Nodes()[0].Domain != "d" {
		t.Fatalf("an environment file with prices reads as %v, %v", old, err)
	}
}

func TestToEnvironmentValidation(t *testing.T) {
	if _, err := ToEnvironment(nil); err == nil {
		t.Error("empty environment accepted")
	}
	if _, err := ToEnvironment([]Node{{Name: "bad", Perf: 2.0}}); err == nil {
		t.Error("performance > 1 accepted")
	}
}

func TestQuickWorkloadRoundTrip(t *testing.T) {
	// Any generated job survives a JSON round trip bit-exactly in its
	// scheduling-relevant fields.
	f := func(seed uint64, idx uint8) bool {
		gen := workload.New(workload.Default(seed))
		orig := gen.Job(int(idx))
		back, err := FromJob(orig).ToJob()
		if err != nil {
			return false
		}
		if back.NumTasks() != orig.NumTasks() || back.NumEdges() != orig.NumEdges() ||
			back.Deadline != orig.Deadline {
			return false
		}
		for i := 0; i < orig.NumTasks(); i++ {
			if orig.Task(dag.TaskID(i)) != back.Task(dag.TaskID(i)) {
				return false
			}
		}
		origEdges, backEdges := orig.Edges(), back.Edges()
		for i := range origEdges {
			if origEdges[i] != backEdges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
