package workload

import (
	"testing"

	"repro/internal/dag"
)

// jobSink and flowSink keep the benchmarked calls' results, so the compiler
// keeps the calls.
var (
	jobSink  *dag.Job
	flowSink []Arrival
)

func BenchmarkGeneratorJob(b *testing.B) {
	g := New(Default(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jobSink = g.Job(i)
	}
}

// BenchmarkFlowWith builds a 1500-job default Poisson flow, its jobs fanned
// out over one worker per CPU.
func BenchmarkFlowWith(b *testing.B) {
	g := New(Default(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		flowSink = g.FlowWith(ArrivalSpec{Kind: ProcPoisson}, 0, 1500, 0)
	}
}
