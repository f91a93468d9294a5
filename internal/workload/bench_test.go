package workload

import (
	"testing"

	"repro/internal/dag"
)

// jobSink keeps the benchmarked call's result, so the compiler keeps the call.
var jobSink *dag.Job

func BenchmarkGeneratorJob(b *testing.B) {
	g := New(Default(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jobSink = g.Job(i)
	}
}
