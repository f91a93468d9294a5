// Benchmarks: one per paper artifact (see DESIGN.md §4's experiment
// index), plus micro-benchmarks of the hot substrates. The experiment
// benchmarks run reduced corpora and report the headline metric of their
// figure via b.ReportMetric, so `go test -bench=. -benchmem` regenerates a
// compact form of every table and figure.
package repro

import (
	"errors"
	"flag"
	"maps"
	"testing"

	"repro/internal/baseline"
	"repro/internal/criticalworks"
	"repro/internal/experiments"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// benchWorkers sizes the worker pool inside the experiment benchmarks;
// 1 forces the sequential path, <1 means one worker per CPU. The CI
// bench-regression job runs the suite at both settings and compares.
var benchWorkers = flag.Int("workers", 1, "worker pool size for the experiment benchmarks (1 = sequential)")

// benchFig3 is DefaultFig3 with the -workers flag applied.
func benchFig3(seed uint64, jobs int) experiments.Fig3Config {
	cfg := experiments.DefaultFig3(seed, jobs)
	cfg.Workers = *benchWorkers
	return cfg
}

// benchFig4 is DefaultFig4 with the -workers flag applied.
func benchFig4(seed uint64, jobs int) experiments.Fig4Config {
	cfg := experiments.DefaultFig4(seed, jobs)
	cfg.Workers = *benchWorkers
	return cfg
}

// BenchmarkFig2Strategy regenerates the §3 worked example (E1).
func BenchmarkFig2Strategy(b *testing.B) {
	var cheapest float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		cheapest = r.Value("cheapest-cf")
	}
	b.ReportMetric(cheapest, "cheapest-CF")
}

// BenchmarkFig3aAdmissibility regenerates Fig. 3(a) on a reduced corpus
// (E2). Paper: S1 38%, S2 37%, S3 33%.
func BenchmarkFig3aAdmissibility(b *testing.B) {
	var s1, s2, s3 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3a(benchFig3(1, 60))
		if err != nil {
			b.Fatal(err)
		}
		s1, s2, s3 = r.Value("admissible-S1"), r.Value("admissible-S2"), r.Value("admissible-S3")
	}
	b.ReportMetric(100*s1, "S1-adm-%")
	b.ReportMetric(100*s2, "S2-adm-%")
	b.ReportMetric(100*s3, "S3-adm-%")
}

// BenchmarkFig3bCollisions regenerates Fig. 3(b) on a reduced corpus (E3).
// Paper fast-node shares: S1 32%, S2 56%, S3 74%.
func BenchmarkFig3bCollisions(b *testing.B) {
	var f1, f2, f3 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3b(benchFig3(1, 60))
		if err != nil {
			b.Fatal(err)
		}
		f1, f2, f3 = r.Value("fast-S1"), r.Value("fast-S2"), r.Value("fast-S3")
	}
	b.ReportMetric(100*f1, "S1-fast-%")
	b.ReportMetric(100*f2, "S2-fast-%")
	b.ReportMetric(100*f3, "S3-fast-%")
}

// BenchmarkFig4aLoad regenerates Fig. 4(a) on a reduced flow (E4).
func BenchmarkFig4aLoad(b *testing.B) {
	var s1slow, s3fast float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4a(benchFig4(1, 60))
		if err != nil {
			b.Fatal(err)
		}
		s1slow, s3fast = r.Value("slow-S1"), r.Value("fast-S3")
	}
	b.ReportMetric(100*s1slow, "S1-slow-load-%")
	b.ReportMetric(100*s3fast, "S3-fast-load-%")
}

// BenchmarkFig4bCostTime regenerates Fig. 4(b) on a reduced flow (E5).
func BenchmarkFig4bCostTime(b *testing.B) {
	var costS3, taskS3 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4b(benchFig4(1, 60))
		if err != nil {
			b.Fatal(err)
		}
		costS3, taskS3 = r.Value("cost-S3"), r.Value("task-S3")
	}
	b.ReportMetric(costS3, "S3-rel-cost")
	b.ReportMetric(taskS3, "S3-rel-task")
}

// BenchmarkFig4cTTL regenerates Fig. 4(c) on a reduced flow (E6).
func BenchmarkFig4cTTL(b *testing.B) {
	var ttlS3, devMS1 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4c(benchFig4(1, 60))
		if err != nil {
			b.Fatal(err)
		}
		ttlS3, devMS1 = r.Value("ttl-S3"), r.Value("dev-MS1")
	}
	b.ReportMetric(ttlS3, "S3-rel-ttl")
	b.ReportMetric(devMS1, "MS1-rel-dev")
}

// BenchmarkPolicyWaitTimes regenerates the §5 policy comparison (E7).
func BenchmarkPolicyWaitTimes(b *testing.B) {
	var fcfs, easy, res float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Policies(experiments.DefaultPolicies(1, 250))
		if err != nil {
			b.Fatal(err)
		}
		fcfs, easy, res = r.Value("wait-FCFS"), r.Value("wait-FCFS+easy-backfill"), r.Value("wait-FCFS+reservations")
	}
	b.ReportMetric(fcfs, "FCFS-wait")
	b.ReportMetric(easy, "easy-wait")
	b.ReportMetric(res, "reserved-wait")
}

// BenchmarkAblationCollision regenerates the E8 ablation.
func BenchmarkAblationCollision(b *testing.B) {
	var realloc, delay float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCollision(benchFig3(1, 40))
		if err != nil {
			b.Fatal(err)
		}
		realloc = r.Value("admissible-economic-reallocation")
		delay = r.Value("admissible-pinned-node-delay")
	}
	b.ReportMetric(100*realloc, "realloc-adm-%")
	b.ReportMetric(100*delay, "delay-adm-%")
}

// BenchmarkAblationLevels regenerates the E9 ablation.
func BenchmarkAblationLevels(b *testing.B) {
	var s1, ms1 float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultAblationLevels(1, 40)
		cfg.Workers = *benchWorkers
		r, err := experiments.AblationLevels(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s1, ms1 = r.Value("evaluations-S1"), r.Value("evaluations-MS1")
	}
	b.ReportMetric(ms1/s1, "MS1/S1-evals")
}

// BenchmarkComparison regenerates the E10 scheduler comparison.
func BenchmarkComparison(b *testing.B) {
	var cwCost, mmCost float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Comparison(benchFig3(1, 40))
		if err != nil {
			b.Fatal(err)
		}
		cwCost, mmCost = r.Value("cf-critical-works-mincost"), r.Value("cf-min-min")
	}
	b.ReportMetric(cwCost/mmCost, "mincost/min-min-CF")
}

// BenchmarkBaselineMinMin measures one min-min run on a mid-size job.
func BenchmarkBaselineMinMin(b *testing.B) {
	gen := workload.New(workload.Default(3))
	env := gen.Environment(1)
	job := gen.Job(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cals := criticalworks.EmptyCalendars(env)
		if _, err := baseline.Build(env, cals, job, baseline.MinMin, baseline.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalPassing regenerates the E11 reservation-vs-queueing study.
func BenchmarkLocalPassing(b *testing.B) {
	var queued float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.LocalPassing(benchFig4(1, 60))
		if err != nil {
			b.Fatal(err)
		}
		queued = r.Value("met-queued")
	}
	b.ReportMetric(100*queued, "queued-met-%")
}

// BenchmarkCriticalWorksBuild measures one full critical-works run on a
// mid-size job over a 25-node environment.
func BenchmarkCriticalWorksBuild(b *testing.B) {
	gen := workload.New(workload.Default(3))
	env := gen.Environment(1)
	job := gen.Job(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cals := criticalworks.EmptyCalendars(env)
		if _, err := criticalworks.Build(env, cals, job, criticalworks.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild measures one critical-works run the way the service
// issues it: a shallow view over shared, densely booked calendars (a
// 60-reservation denseBook per node), which the build reads and never
// copies wholesale. B/op and allocs/op are the point — the what-if
// attempts should allocate only what they keep.
func BenchmarkBuild(b *testing.B) {
	gen := workload.New(workload.Default(3))
	env := gen.Environment(1)
	job := gen.Job(0)
	base := criticalworks.EmptyCalendars(env)
	for id := range base {
		base[id] = denseBook(60)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// An infeasible job is a legitimate outcome on these books: all
		// five margins run, which is the service's common case.
		var inf *criticalworks.InfeasibleError
		if _, err := criticalworks.Build(env, maps.Clone(base), job, criticalworks.Options{}); err != nil && !errors.As(err, &inf) {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalendarReserve measures reservation book operations.
func BenchmarkCalendarReserve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := resource.NewCalendar()
		for k := simtime.Time(0); k < 200; k++ {
			if err := c.Reserve(simtime.Interval{Start: 10 * k, End: 10*k + 8}, resource.Owner{Job: "j"}); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := c.FirstFree(0, 3, 10000); !ok {
			b.Fatal("no slot")
		}
	}
}

// BenchmarkDESEngine measures raw event throughput.
func BenchmarkDESEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.New()
		var count int
		for k := 0; k < 1000; k++ {
			k := k
			e.At(simtime.Time(k), "ev", func() { count++ })
		}
		e.Run()
		if count != 1000 {
			b.Fatal("lost events")
		}
	}
}

// BenchmarkWorkloadGeneration measures §4 corpus generation.
func BenchmarkWorkloadGeneration(b *testing.B) {
	gen := workload.New(workload.Default(5))
	for i := 0; i < b.N; i++ {
		job := gen.Job(i % 1000)
		if job.NumTasks() == 0 {
			b.Fatal("empty job")
		}
	}
}

// BenchmarkVOThroughput measures the full hierarchy end to end.
func BenchmarkVOThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := workload.Default(7)
		cfg.DeadlineFactor = 1.8
		gen := workload.New(cfg)
		env := gen.Environment(2)
		engine := sim.New()
		vo := NewVO(engine, env, VOConfig{Seed: 7})
		for _, a := range gen.Flow(0, 30, 0) {
			vo.Submit(a.Job, S1, a.At)
		}
		engine.Run()
		if len(vo.Results()) != 30 {
			b.Fatalf("results = %d", len(vo.Results()))
		}
	}
}
