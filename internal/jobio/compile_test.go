package jobio

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestToJobAllocs: compiling a §4 corpus job allocates the job's own memory
// and nothing else: the Job with its graph (one block), the string of its
// names and the graph's two slabs, weights and indices. The name map, the
// builder's staging and Build's working memory are pooled. With Build's
// working memory made per job the count was 5.
func TestToJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items; the pin runs in CI's step without -race")
	}
	const ceiling = 4
	for i, w := range corpusWires(64) {
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := w.ToJob(); err != nil {
				t.Fatal(err)
			}
		}); allocs > ceiling {
			t.Errorf("job %d (%d tasks): %.0f allocs per ToJob, ceiling %d", i, len(w.Tasks), allocs, ceiling)
		}
	}
}

// TestToJobBytes: the bytes ToJob allocates per §4 corpus job (14 tasks and
// 18 edges on average), once its pools are warm. The bytes are
// MemStats.TotalAlloc's, the counter testing.Benchmark's AllocedBytesPerOp
// reads, without its one-second run. A graph that held a Task per task and
// an Edge per edge took 1 940 B per job; the flat one takes about 1 360.
func TestToJobBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations; the pin runs in CI's step without -race")
	}
	const ceiling, rounds = 1450, 20
	wires := corpusWires(64)
	compile := func() {
		for _, w := range wires {
			if _, err := w.ToJob(); err != nil {
				t.Fatal(err)
			}
		}
	}
	compile()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		compile()
	}
	runtime.ReadMemStats(&after)
	if perJob := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(wires)); perJob > ceiling {
		t.Errorf("%d bytes per ToJob, ceiling %d", perJob, ceiling)
	}
}

// TestValidateAllocs: validating a job allocates nothing once warm — a §4
// corpus job, and one larger than any the corpus holds.
func TestValidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items; the pin runs in CI's step without -race")
	}
	wires := corpusWires(64)
	var big []Job
	if err := json.Unmarshal([]byte(chainJob(500)), &big); err != nil {
		t.Fatal(err)
	}
	for i, w := range append(wires, big...) {
		if allocs := testing.AllocsPerRun(20, func() {
			if err := w.Validate(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("job %d (%d tasks): %.0f allocs per Validate, want 0", i, len(w.Tasks), allocs)
		}
	}
}
