package dag_test

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/workload"
)

// TestWorkloadCorpusMatchesReference runs the §4 default corpus — the jobs
// the experiments and the benchmark schedule — through the reference check
// of dag_test.go. It lives in the external test package because workload
// imports dag.
func TestWorkloadCorpusMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		gen := workload.New(workload.Default(seed))
		for i := 0; i < 300; i++ {
			dag.CheckAgainstReference(t, gen.Job(i))
		}
	}
}
