package dag

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
)

// fuzzGraph decodes the tasks and edges a builder is fed from fuzz bytes:
// the task count (0 to 15), a name byte and a weight byte per task, then a
// name byte, two endpoint bytes and a weight byte per edge while the input
// lasts. Most names are unique; a name byte of 0xc0 or more draws from a
// small set that holds the empty name, the unique names of other tasks and
// edges and the "+k" names coarsening makes, so duplicate names and coarse
// names that collide come up. Endpoints are free, so parallel edges and
// cycles come up too; a self-loop, which Link refuses by panicking, is
// skipped.
func fuzzGraph(data []byte) ([]Task, []Edge) {
	if len(data) == 0 {
		return nil, nil
	}
	n := int(data[0] % 16)
	data = data[1:]
	name := func(b byte, prefix string, i int) string {
		if b < 0xc0 {
			return prefix + strconv.Itoa(i)
		}
		return [...]string{"", "T0", "T1", "T1+1", "T0+2", "D0", "D1+D2", "+"}[b%8]
	}
	var tasks []Task
	for i := 0; i < n && len(data) >= 2; i++ {
		tasks = append(tasks, Task{
			ID: TaskID(i), Name: name(data[0], "T", i),
			BaseTime: simtime.Time(1 + data[1]%7), Volume: int64(data[1] / 7 % 5),
		})
		data = data[2:]
	}
	var edges []Edge
	for len(tasks) > 1 && len(data) >= 4 && len(edges) < 48 {
		from, to := TaskID(int(data[1])%len(tasks)), TaskID(int(data[2])%len(tasks))
		if from != to {
			edges = append(edges, Edge{
				Name: name(data[0], "D", len(edges)), From: from, To: to,
				BaseTime: simtime.Time(data[3] % 5), Volume: int64(data[3] / 5 % 7),
			})
		}
		data = data[4:]
	}
	return tasks, edges
}

// wantBuild is what Build must answer for a graph: the reference's job, or
// the error Build reports. The reference builds a graph with two tasks of
// one name; Build refuses it, naming the least such name.
func wantBuild(name string, deadline simtime.Time, tasks []Task, edges []Edge) (*refJob, error) {
	seen := map[string]bool{}
	dup, found := "", false
	for _, t := range tasks {
		if seen[t.Name] && (!found || t.Name < dup) {
			dup, found = t.Name, true
		}
		seen[t.Name] = true
	}
	if found {
		return nil, fmt.Errorf("dag: job %q has duplicate task %q", name, dup)
	}
	return refBuild(name, deadline, tasks, edges)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameBuild fails t where Build's answer for the graph — its error, or the
// job and everything read from it, its chain searches and its coarsening —
// departs from the reference's, which it returns.
func sameBuild(t *testing.T, j *Job, err error, deadline simtime.Time, tasks []Task, edges []Edge) *refJob {
	t.Helper()
	ref, refErr := wantBuild("fuzz", deadline, tasks, edges)
	if errText(err) != errText(refErr) {
		t.Fatalf("Build: %s, reference %s", errText(err), errText(refErr))
	}
	if err != nil {
		return nil
	}
	if !reflect.DeepEqual(j.Tasks(), tasks) || !sameEdges(j.Edges(), edges) {
		t.Fatalf("the job holds %v %v, the builder was fed %v %v", j.Tasks(), j.Edges(), tasks, edges)
	}
	if err := sameGraph(j, ref); err != nil {
		t.Fatal(err)
	}
	var volume int64
	for _, tk := range tasks {
		volume += tk.Volume
		if got, ok := j.TaskByName(tk.Name); !ok || got != tk {
			t.Fatalf("TaskByName(%q) = %v %v, want %v", tk.Name, got, ok, tk)
		}
	}
	if got, ok := j.TaskByName("missing"); ok {
		t.Fatalf("TaskByName(\"missing\") = %v", got)
	}
	if j.TotalVolume() != volume {
		t.Fatalf("TotalVolume = %d, want %d", j.TotalVolume(), volume)
	}
	if err := sameChains(j, ref, rng.New(uint64(len(tasks)))); err != nil {
		t.Fatal(err)
	}
	c, err := Coarsen(j)
	cref, refErr := refCoarsen(ref)
	if refErr == nil {
		if _, refErr = wantBuild(cref.name, cref.deadline, cref.tasks, cref.edges); refErr != nil {
			refErr = fmt.Errorf("dag: coarsen %q: %w", j.Name, refErr)
		}
	}
	if errText(err) != errText(refErr) {
		t.Fatalf("Coarsen: %s, reference %s", errText(err), errText(refErr))
	}
	if err == nil {
		if err := sameGraph(c, cref); err != nil {
			t.Fatalf("coarse job: %v", err)
		}
	}
	return ref
}

// FuzzBuildMatchesReference: a graph fed to a Builder by ID — empty, with
// duplicate and empty names, parallel edges or cycles — builds to the
// reference's job or fails with its error, and so does its coarsening. The
// builder then takes one task more, linked from the first, and builds
// again from what it staged afresh, leaving the first job as it was.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	// Fig. 2's diamond.
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 0, 4, 0, 0, 1, 1, 0, 0, 2, 2, 0, 1, 3, 3, 0, 2, 3, 4})
	// A chain with a parallel edge, which coarsens to one task.
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 0, 0, 1, 1, 0, 0, 1, 2, 0, 1, 2, 3})
	// A cycle.
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 0, 0, 1, 1, 0, 1, 2, 1, 0, 2, 0, 1})
	// Two empty names and two named T0: Build names the empty one.
	f.Add([]byte{4, 0xc0, 1, 0xc1, 2, 0xc0, 3, 0xc1, 4})
	// A run headed by T1 coarsens to "T1+1", which another task holds.
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 0xc3, 4, 0, 1, 2, 1, 0, 0, 3, 1, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, edges := fuzzGraph(data)
		deadline := simtime.Time(len(data))
		b := NewBuilder("fuzz").Deadline(deadline)
		for _, tk := range tasks {
			b.Task(tk.Name, tk.BaseTime, tk.Volume)
		}
		for _, e := range edges {
			b.Link(e.Name, e.From, e.To, e.BaseTime, e.Volume)
		}
		first, err := b.Build()
		firstRef := sameBuild(t, first, err, deadline, tasks, edges)

		late := Task{ID: TaskID(len(tasks)), Name: "late", BaseTime: 2, Volume: 3}
		tasks = append(tasks[:len(tasks):len(tasks)], late)
		b.Task(late.Name, late.BaseTime, late.Volume)
		if late.ID > 0 {
			e := Edge{Name: "late-in", From: 0, To: late.ID, BaseTime: 1, Volume: 1}
			edges = append(edges[:len(edges):len(edges)], e)
			b.Link(e.Name, e.From, e.To, e.BaseTime, e.Volume)
		}
		second, err := b.Build()
		sameBuild(t, second, err, deadline, tasks, edges)
		if first != nil {
			if err := sameGraph(first, firstRef); err != nil {
				t.Fatalf("the first job changed under the builder: %v", err)
			}
		}
	})
}
