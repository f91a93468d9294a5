package jobio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/simtime"
)

// readJobsSeeds are the decoder fuzzers' seed inputs.
var readJobsSeeds = []string{
	`[{"name":"x","deadline":9,"tasks":[{"name":"A","baseTime":1,"volume":2}],"edges":[]}]`,
	`[]`,
	`[{"name":"x","tasks":[{"name":"A","baseTime":1},{"name":"B","baseTime":2}],` +
		`"edges":[{"name":"e","from":"A","to":"B","baseTime":1}]}]`,
	`not json at all`,
	`[{"tasks":[{"name":"A","baseTime":-4}]}]`,
	// Malformed submissions the service must reject without panicking:
	// duplicate task names, dangling edge endpoints, self-loops, negative
	// weights and deadlines, and overflow-scale values.
	`[{"name":"dup","tasks":[{"name":"A","baseTime":1,"volume":1},{"name":"A","baseTime":1,"volume":1}]}]`,
	`[{"name":"dangle","tasks":[{"name":"A","baseTime":1,"volume":1}],` +
		`"edges":[{"name":"e","from":"A","to":"ghost","baseTime":1,"volume":1}]}]`,
	`[{"name":"loop","tasks":[{"name":"A","baseTime":1,"volume":1}],` +
		`"edges":[{"name":"e","from":"A","to":"A","baseTime":1,"volume":1}]}]`,
	`[{"name":"neg","deadline":-7,"tasks":[{"name":"A","baseTime":1,"volume":-3}]}]`,
	`[{"name":"big","deadline":9223372036854775807,` +
		`"tasks":[{"name":"A","baseTime":9223372036854775807,"volume":9223372036854775807}]}]`,
	`[{"name":"zerovol","tasks":[{"name":"A","baseTime":2,"volume":0}]}]`,
	`[{"name":"empty-name","tasks":[{"name":"","baseTime":1,"volume":1}]}]`,
	// Journal-record shapes: the write-ahead journal embeds the wire job in
	// {"crc":N,"rec":{...,"wire":<job>}} envelopes, so crash recovery can
	// feed envelope fragments and CRC-framed payloads into this decoder.
	`{"crc":1234567890,"rec":{"lsn":1,"job":"j0","state":"queued","strategy":"S1",` +
		`"wire":{"name":"j0","deadline":60,"tasks":[{"name":"A","baseTime":2,"volume":10}]}}}`,
	`[{"name":"j0","deadline":60,"tasks":[{"name":"A","baseTime":2,"volume":10},` +
		`{"name":"B","baseTime":3,"volume":15}],"edges":[{"name":"d","from":"A","to":"B","baseTime":1,"volume":5}]}]`,
	`{"lsn":18446744073709551615,"job":"wrap","state":"completed"}`,
	`{"crc":0,"rec":`, // torn tail: envelope cut mid-payload
}

// FuzzReadJobs ensures arbitrary input can never panic the decoder: it
// must either error out or produce jobs that round-trip — the job read back
// from a job's own wire form is the same graph, task by task, edge by edge
// and in the same topological order.
func FuzzReadJobs(f *testing.F) {
	for _, in := range readJobsSeeds {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		jobs, err := ReadJobs(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, j := range jobs {
			var buf bytes.Buffer
			if err := WriteJobs(&buf, []Job{FromJob(j)}); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			back, err := ReadJobs(&buf)
			if err != nil {
				t.Fatalf("round trip failed: %v", err)
			}
			if len(back) != 1 {
				t.Fatalf("round trip returned %d jobs for one", len(back))
			}
			b := back[0]
			if b.Name != j.Name || b.Deadline != j.Deadline || b.NumTasks() != j.NumTasks() || b.NumEdges() != j.NumEdges() {
				t.Fatalf("round trip changed the job: %q deadline %d, %d tasks, %d edges; was %q deadline %d, %d tasks, %d edges",
					b.Name, b.Deadline, b.NumTasks(), b.NumEdges(), j.Name, j.Deadline, j.NumTasks(), j.NumEdges())
			}
			for i := 0; i < j.NumTasks(); i++ {
				if id := dag.TaskID(i); b.Task(id) != j.Task(id) {
					t.Fatalf("round trip changed task %d: %+v, was %+v", i, b.Task(id), j.Task(id))
				}
				if b.TopoAt(i) != j.TopoAt(i) {
					t.Fatalf("round trip changed the topological order at %d: task %d, was %d", i, b.TopoAt(i), j.TopoAt(i))
				}
			}
			for i := 0; i < j.NumEdges(); i++ {
				if b.EdgeAt(i) != j.EdgeAt(i) {
					t.Fatalf("round trip changed edge %d: %+v, was %+v", i, b.EdgeAt(i), j.EdgeAt(i))
				}
			}
		}
	})
}

// What follows is Validate and ToJob as they were before one name map
// served both — a name set for the checks, then the builder adding every
// edge by its endpoints' names, under a recover — kept as the reference the
// one-pass compile is compared against. It runs on today's dag.Builder, so
// what it pins is jobio's name resolution, checks and error precedence, not
// the builder: Edge is by-name sugar over Link there, and both sides share
// Build. Change it only to follow a deliberate change of behaviour.

func refValidate(j Job) error {
	if j.Name == "." || j.Name == ".." {
		return fmt.Errorf("jobio: job name %q cannot be addressed in a URL path", j.Name)
	}
	if len(j.Tasks) == 0 {
		return fmt.Errorf("jobio: job %q has no tasks", j.Name)
	}
	if j.Deadline < 0 {
		return fmt.Errorf("jobio: job %q has negative deadline %d", j.Name, j.Deadline)
	}
	names := make(map[string]bool, len(j.Tasks))
	for i, t := range j.Tasks {
		if t.Name == "" {
			return fmt.Errorf("jobio: job %q: task %d has empty name", j.Name, i)
		}
		if names[t.Name] {
			return fmt.Errorf("jobio: job %q: duplicate task name %q", j.Name, t.Name)
		}
		names[t.Name] = true
		if t.BaseTime <= 0 {
			return fmt.Errorf("jobio: job %q: task %q has non-positive base time %d", j.Name, t.Name, t.BaseTime)
		}
		if t.Volume <= 0 {
			return fmt.Errorf("jobio: job %q: task %q has non-positive volume %d", j.Name, t.Name, t.Volume)
		}
	}
	for i, e := range j.Edges {
		label := e.Name
		if label == "" {
			label = fmt.Sprintf("#%d", i)
		}
		if !names[e.From] {
			return fmt.Errorf("jobio: job %q: edge %q references unknown task %q", j.Name, label, e.From)
		}
		if !names[e.To] {
			return fmt.Errorf("jobio: job %q: edge %q references unknown task %q", j.Name, label, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("jobio: job %q: edge %q is a self-loop on %q", j.Name, label, e.From)
		}
		if e.BaseTime < 0 {
			return fmt.Errorf("jobio: job %q: edge %q has negative base time %d", j.Name, label, e.BaseTime)
		}
		if e.Volume < 0 {
			return fmt.Errorf("jobio: job %q: edge %q has negative volume %d", j.Name, label, e.Volume)
		}
	}
	return nil
}

func refToJob(j Job) (*dag.Job, error) {
	if err := refValidate(j); err != nil {
		return nil, err
	}
	b := dag.NewBuilder(j.Name).Deadline(j.Deadline).Grow(len(j.Tasks), len(j.Edges))
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("jobio: job %q: %v", j.Name, r)
			}
		}()
		for _, t := range j.Tasks {
			b.Task(t.Name, simtime.Time(t.BaseTime), t.Volume)
		}
		for _, e := range j.Edges {
			b.Edge(e.Name, e.From, e.To, simtime.Time(e.BaseTime), e.Volume)
		}
	}()
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// sameJob reports where got departs from want: name, deadline, task by
// task, edge by edge and in topological order.
func sameJob(got, want *dag.Job) error {
	if got.Name != want.Name || got.Deadline != want.Deadline || got.NumTasks() != want.NumTasks() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("job %q deadline %d, %d tasks, %d edges; reference %q deadline %d, %d tasks, %d edges",
			got.Name, got.Deadline, got.NumTasks(), got.NumEdges(), want.Name, want.Deadline, want.NumTasks(), want.NumEdges())
	}
	for i := 0; i < want.NumTasks(); i++ {
		if id := dag.TaskID(i); got.Task(id) != want.Task(id) {
			return fmt.Errorf("task %d: %+v, reference %+v", i, got.Task(id), want.Task(id))
		}
		if got.TopoAt(i) != want.TopoAt(i) {
			return fmt.Errorf("topological order at %d: task %d, reference %d", i, got.TopoAt(i), want.TopoAt(i))
		}
	}
	for i := 0; i < want.NumEdges(); i++ {
		if got.EdgeAt(i) != want.EdgeAt(i) {
			return fmt.Errorf("edge %d: %+v, reference %+v", i, got.EdgeAt(i), want.EdgeAt(i))
		}
	}
	return nil
}

// chainJob is the wire form of an n-task job: a chain P1 → … → Pn with a
// skip edge every third task.
func chainJob(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `[{"name":"chain%d","deadline":%d,"tasks":[`, n, 4*n)
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"P%d","baseTime":%d,"volume":%d}`, i, 1+i%3, 10+i)
	}
	b.WriteString(`],"edges":[`)
	for i := 2; i <= n; i++ {
		if i > 2 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"D%d","from":"P%d","to":"P%d","baseTime":1,"volume":5}`, i, i-1, i)
		if i%3 == 0 && i+2 <= n {
			fmt.Fprintf(&b, `,{"from":"P%d","to":"P%d","baseTime":2,"volume":1}`, i, i+2)
		}
	}
	b.WriteString(`]}]`)
	return b.String()
}

// FuzzValidateMatchesReference: for any wire job, Validate returns the
// reference's error string, and ToJob that error or the reference's graph.
func FuzzValidateMatchesReference(f *testing.F) {
	for _, in := range readJobsSeeds {
		f.Add(in)
	}
	// A duplicate name after a bad base time, and the other way round: the
	// first failure in task order is the one reported.
	f.Add(`[{"name":"order","tasks":[{"name":"A","baseTime":0,"volume":1},{"name":"A","baseTime":1,"volume":1}]}]`)
	f.Add(`[{"name":"order","tasks":[{"name":"A","baseTime":1,"volume":1},{"name":"A","baseTime":0,"volume":1}]}]`)
	// An unknown endpoint on an unnamed edge, after a named good one.
	f.Add(`[{"name":"anon","tasks":[{"name":"A","baseTime":1,"volume":1},{"name":"B","baseTime":1,"volume":1}],` +
		`"edges":[{"name":"ok","from":"A","to":"B"},{"from":"B","to":"nope"}]}]`)
	// Jobs whose name maps outgrow small ones: 40 tasks, and 100, whole and
	// with an unnamed edge dangling.
	f.Add(chainJob(40))
	f.Add(chainJob(100))
	f.Add(strings.Replace(chainJob(100), `"to":"P100"`, `"to":"P101"`, 1))
	f.Fuzz(func(t *testing.T, in string) {
		var wire []Job
		if err := json.Unmarshal([]byte(in), &wire); err != nil {
			return
		}
		for _, w := range wire {
			errString := func(err error) string {
				if err == nil {
					return "<nil>"
				}
				return err.Error()
			}
			if got, want := errString(w.Validate()), errString(refValidate(w)); got != want {
				t.Fatalf("Validate: %s, reference %s", got, want)
			}
			got, err := w.ToJob()
			want, refErr := refToJob(w)
			if errString(err) != errString(refErr) {
				t.Fatalf("ToJob: %s, reference %s", errString(err), errString(refErr))
			}
			if err != nil {
				continue
			}
			if err := sameJob(got, want); err != nil {
				t.Fatalf("ToJob of %q: %v", w.Name, err)
			}
		}
	})
}
