// Batched-placement benchmarks (see DESIGN.md §12). The CI
// bench-regression job runs BenchmarkConcurrentPlacement at -placers=1
// and -placers=4 and gates on a ≥1.5× speedup via cmd/benchcheck; the
// sweep is informational.
package repro

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/simtime"
	"repro/internal/workload"
)

// benchPlacers bounds the per-domain pipelines run at once; ≤1 is width 1
// (every job a batch of one), which is the CI comparison baseline.
var benchPlacers = flag.Int("placers", 1, "placement pipelines run at once in the placement benchmarks (≤1 = one job at a time)")

// placementRun drives one VO through `batches` arrival batches of `width`
// jobs each: every batch shares a tick, so at placers>1 the whole batch
// is split by domain and the domains' pipelines plan and book side by
// side, while at placers≤1 each job is a batch of one and places alone.
// Generous deadlines keep the corpus admissible, so the measured work is
// strategy building and booking, not rejection handling. Only
// engine.Run() is timed: generating the corpus and the environment is the
// same at every width and would dilute the ratio the gate reads.
func placementRun(b *testing.B, placers, domains, batches, width int) {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	cfg := workload.Default(11)
	cfg.DeadlineFactor *= 4
	gen := workload.New(cfg)
	env := gen.Environment(domains)
	engine := NewEngine()
	vo := NewVO(engine, env, VOConfig{Seed: 11, Placers: placers})
	jobs := batches * width
	for i := 0; i < jobs; i++ {
		at := simtime.Time(i/width) * 400
		j := gen.Job(i)
		j = j.WithDeadline(at + j.Deadline)
		if err := vo.SubmitPrio(j, S1, at, i%3); err != nil {
			b.Fatal(err)
		}
	}
	b.StartTimer()
	engine.Run()
	b.StopTimer()
	if got := len(vo.Results()); got != jobs {
		b.Fatalf("results = %d, want %d", got, jobs)
	}
}

// BenchmarkConcurrentPlacement is the CI-gated workload: 24 jobs per
// iteration in shared-tick batches of 8 over 4 domains, two jobs per
// pipeline; ns/op at -placers=4 must beat -placers=1 (benchcheck,
// -min-speedup 1.5).
func BenchmarkConcurrentPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		placementRun(b, *benchPlacers, 4, 3, 8)
	}
}

// BenchmarkPlacementSweep maps the speedup surface: pipelines at once ×
// domains, at fixed batch width 8; one domain is one pipeline and cannot
// go wide. Not CI-gated.
func BenchmarkPlacementSweep(b *testing.B) {
	for _, placers := range []int{1, 2, 4, 8} {
		for _, domains := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("placers=%d/domains=%d", placers, domains), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					placementRun(b, placers, domains, 3, 8)
				}
			})
		}
	}
}
