// Benchmarks: one per paper artifact (see DESIGN.md §4's experiment
// index), plus micro-benchmarks of the hot substrates. The experiment
// benchmarks run reduced corpora and report the headline metric of their
// figure via b.ReportMetric, so `go test -bench=. -benchmem` regenerates a
// compact form of every table and figure. They run the experiment engine
// sequentially (Workers: 1), so ns/op does not depend on the host's core
// count; internal/experiments' TestFig3ParallelBeatsSequential holds the
// pool to paying for itself.
package repro

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"repro/internal/baseline"
	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

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
		cfg := experiments.Fig3Config{Seed: 1, Jobs: 60, Workers: 1}
		r, err := experiments.Fig3a(cfg)
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
		cfg := experiments.Fig3Config{Seed: 1, Jobs: 60, Workers: 1}
		r, err := experiments.Fig3b(cfg)
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
		cfg := experiments.Fig4Config{Seed: 1, Jobs: 60, Workers: 1}
		r, err := experiments.Fig4a(cfg)
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
		cfg := experiments.Fig4Config{Seed: 1, Jobs: 60, Workers: 1}
		r, err := experiments.Fig4b(cfg)
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
		cfg := experiments.Fig4Config{Seed: 1, Jobs: 60, Workers: 1}
		r, err := experiments.Fig4c(cfg)
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
		r, err := experiments.Policies(experiments.PoliciesConfig{Seed: 1, Jobs: 250})
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
		cfg := experiments.Fig3Config{Seed: 1, Jobs: 40, Workers: 1}
		r, err := experiments.AblationCollision(cfg)
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
		cfg := experiments.Fig3Config{Seed: 1, Jobs: 40, Workers: 1}
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
		cfg := experiments.Fig3Config{Seed: 1, Jobs: 40, Workers: 1}
		r, err := experiments.Comparison(cfg)
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
		if _, err := baseline.Build(env, cals, job, baseline.MinMin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalPassing regenerates the E11 reservation-vs-queueing study.
func BenchmarkLocalPassing(b *testing.B) {
	var queued float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.Fig4Config{Seed: 1, Jobs: 60, Workers: 1}
		r, err := experiments.LocalPassing(cfg)
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

// denseBook builds a book of n reservations [10i, 10i+7) — every gap 3
// ticks wide — with one length-50 hole before the final reservation, so
// a FirstFree probe for anything wider than 3 must reach the far end of
// the book: the linear walk's worst case, one max-gap-tree descent for
// the index.
func denseBook(n int) *resource.Calendar {
	c := resource.NewCalendar()
	hole := simtime.Time((n - 1) * 10)
	for i := 0; i < n; i++ {
		start := simtime.Time(i * 10)
		if start >= hole {
			start += 50
		}
		iv := simtime.Interval{Start: start, End: start + 7}
		if err := c.Reserve(iv, resource.External); err != nil {
			panic(err)
		}
	}
	return c
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

// BenchmarkBuildManyChains builds a job of eight independent three-task
// chains — eight critical works, the only fixture with many — over nine of
// ten empty equal nodes, once per iteration, each on a fresh clone of the
// books. BenchmarkBuild's single dense job places few chains and missed a
// +35 % per-probe scan of the attempt's own placements that this one caught.
// Node 7 is left out because the outage benchmark this fixture comes from
// dropped it: EXPERIMENTS.md E15–E17 read this build as
// "BenchmarkOutageRepair -repair=false".
func BenchmarkBuildManyChains(b *testing.B) {
	bl := dag.NewBuilder("outage").Deadline(600)
	for _, c := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		bl.Task(c+"1", 2, 20)
		bl.Task(c+"2", 2, 20)
		bl.Task(c+"3", 2, 20)
		bl.Edge(c+"e1", c+"1", c+"2", 1, 5)
		bl.Edge(c+"e2", c+"2", c+"3", 1, 5)
	}
	job := bl.MustBuild()
	nodes := make([]*resource.Node, 10)
	for i := range nodes {
		nodes[i] = resource.NewNode(resource.NodeID(i), fmt.Sprintf("n%d", i), 1.0, "d")
	}
	env := resource.NewEnvironment(nodes)
	live := criticalworks.EmptyCalendars(env)
	cands := []resource.NodeID{0, 1, 2, 3, 4, 5, 6, 8, 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := criticalworks.Build(env, live.Clone(), job, criticalworks.Options{
			Candidates: cands,
			Data:       data.Model{Policy: data.RemoteAccess},
		})
		if err != nil {
			b.Fatalf("build: %v", err)
		}
	}
}

// BenchmarkDPWidth builds one eight-task chain on C = 4 … 64 candidates of
// two alternating tiers, every other node booked with a 60-reservation
// denseBook and the rest empty. The critical-works DP fills C cells per
// chain position from the C cells before it; how ns/op grows with C is the
// cost of that fill. probes/op counts the calendar probes the build issued,
// one per cell that has a feasible predecessor: C per chain position.
func BenchmarkDPWidth(b *testing.B) {
	bl := dag.NewBuilder("chain").Deadline(400)
	prev := bl.Task("T0", 2, 10)
	for i := 1; i < 8; i++ {
		t := bl.Task(fmt.Sprintf("T%d", i), 2, 10)
		bl.Link(fmt.Sprintf("E%d", i), prev, t, 1, 5)
		prev = t
	}
	job := bl.MustBuild()
	for _, c := range []int{4, 8, 16, 32, 64} {
		nodes := make([]*resource.Node, c)
		for i := range nodes {
			nodes[i] = resource.NewNode(resource.NodeID(i), fmt.Sprintf("n%d", i), []float64{1.0, 0.5}[i/2%2], "d")
		}
		env := resource.NewEnvironment(nodes)
		base := criticalworks.EmptyCalendars(env)
		for id := range base {
			if id%2 == 1 {
				base[id] = denseBook(60)
			}
		}
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			var probes int64
			for i := 0; i < b.N; i++ {
				s, err := criticalworks.Build(env, maps.Clone(base), job, criticalworks.Options{})
				if err != nil {
					b.Fatal(err)
				}
				probes = s.Evaluations
			}
			b.ReportMetric(float64(probes), "probes/op")
		})
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
