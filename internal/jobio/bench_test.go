package jobio

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/workload"
)

// corpusWires returns the wire forms of the first n jobs of the §4 corpus.
func corpusWires(n int) []Job {
	gen := workload.New(workload.Default(1))
	wires := make([]Job, n)
	for i := range wires {
		wires[i] = FromJob(gen.Job(i))
	}
	return wires
}

// Sinks for the benchmarked calls' results, so the compiler keeps the calls.
var (
	jobSink *dag.Job
	errSink error
)

func BenchmarkToJob(b *testing.B) {
	wires := corpusWires(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobSink, errSink = wires[i%len(wires)].ToJob()
	}
}

func BenchmarkValidate(b *testing.B) {
	wires := corpusWires(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errSink = wires[i%len(wires)].Validate()
	}
}
