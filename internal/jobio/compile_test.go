package jobio

import (
	"encoding/json"
	"testing"
)

// TestToJobAllocs: compiling a §4 corpus job allocates the job's own memory
// and nothing else: its task and edge lists, the Job with its graph (one
// block) and the graph's CSR slab. The name map and Build's working memory
// are pooled. With Build's working memory made per job the count was 5.
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
