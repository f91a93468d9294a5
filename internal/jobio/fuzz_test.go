package jobio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dag"
)

// FuzzReadJobs ensures arbitrary input can never panic the decoder: it
// must either error out or produce jobs that round-trip — the job read back
// from a job's own wire form is the same graph, task by task, edge by edge
// and in the same topological order.
func FuzzReadJobs(f *testing.F) {
	f.Add(`[{"name":"x","deadline":9,"tasks":[{"name":"A","baseTime":1,"volume":2}],"edges":[]}]`)
	f.Add(`[]`)
	f.Add(`[{"name":"x","tasks":[{"name":"A","baseTime":1},{"name":"B","baseTime":2}],` +
		`"edges":[{"name":"e","from":"A","to":"B","baseTime":1}]}]`)
	f.Add(`not json at all`)
	f.Add(`[{"tasks":[{"name":"A","baseTime":-4}]}]`)
	// Malformed submissions the service must reject without panicking:
	// duplicate task names, dangling edge endpoints, self-loops, negative
	// weights and deadlines, and overflow-scale values.
	f.Add(`[{"name":"dup","tasks":[{"name":"A","baseTime":1,"volume":1},{"name":"A","baseTime":1,"volume":1}]}]`)
	f.Add(`[{"name":"dangle","tasks":[{"name":"A","baseTime":1,"volume":1}],` +
		`"edges":[{"name":"e","from":"A","to":"ghost","baseTime":1,"volume":1}]}]`)
	f.Add(`[{"name":"loop","tasks":[{"name":"A","baseTime":1,"volume":1}],` +
		`"edges":[{"name":"e","from":"A","to":"A","baseTime":1,"volume":1}]}]`)
	f.Add(`[{"name":"neg","deadline":-7,"tasks":[{"name":"A","baseTime":1,"volume":-3}]}]`)
	f.Add(`[{"name":"big","deadline":9223372036854775807,` +
		`"tasks":[{"name":"A","baseTime":9223372036854775807,"volume":9223372036854775807}]}]`)
	f.Add(`[{"name":"zerovol","tasks":[{"name":"A","baseTime":2,"volume":0}]}]`)
	f.Add(`[{"name":"empty-name","tasks":[{"name":"","baseTime":1,"volume":1}]}]`)
	// Journal-record shapes: the write-ahead journal embeds the wire job in
	// {"crc":N,"rec":{...,"wire":<job>}} envelopes, so crash recovery can
	// feed envelope fragments and CRC-framed payloads into this decoder.
	f.Add(`{"crc":1234567890,"rec":{"lsn":1,"job":"j0","state":"queued","strategy":"S1",` +
		`"wire":{"name":"j0","deadline":60,"tasks":[{"name":"A","baseTime":2,"volume":10}]}}}`)
	f.Add(`[{"name":"j0","deadline":60,"tasks":[{"name":"A","baseTime":2,"volume":10},` +
		`{"name":"B","baseTime":3,"volume":15}],"edges":[{"name":"d","from":"A","to":"B","baseTime":1,"volume":5}]}]`)
	f.Add(`{"lsn":18446744073709551615,"job":"wrap","state":"completed"}`)
	f.Add(`{"crc":0,"rec":`) // torn tail: envelope cut mid-payload
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
