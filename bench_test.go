// Benchmarks: one per paper artifact (see DESIGN.md §4's experiment
// index), plus micro-benchmarks of the hot substrates. The experiment
// benchmarks run their row of that index on reduced corpora and report the
// headline metric of their figure via b.ReportMetric, so `go test -bench=.
// -benchmem` regenerates a compact form of every table and figure. They run
// the experiment engine on a pool of one worker (Workers: 1), so ns/op does
// not depend on the host's core count; internal/experiments' TestFig3ParallelBeatsSequential holds the
// pool to paying for itself.
package repro

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// runRow runs row id of gridsim's experiment index on cfg.
func runRow(b *testing.B, id string, cfg experiments.Config) *experiments.Report {
	b.Helper()
	for _, e := range experiments.Experiments {
		if e.ID == id {
			r, err := e.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
	}
	b.Fatalf("no experiment %q", id)
	return nil
}

// BenchmarkFig2Strategy regenerates the §3 worked example (E1).
func BenchmarkFig2Strategy(b *testing.B) {
	var cheapest float64
	for i := 0; i < b.N; i++ {
		cheapest = runRow(b, "fig2", experiments.Config{}).Value("cheapest-cf")
	}
	b.ReportMetric(cheapest, "cheapest-CF")
}

// BenchmarkFig3aAdmissibility regenerates Fig. 3(a) on a reduced corpus
// (E2). Paper: S1 38%, S2 37%, S3 33%.
func BenchmarkFig3aAdmissibility(b *testing.B) {
	var s1, s2, s3 float64
	for i := 0; i < b.N; i++ {
		r := runRow(b, "fig3a", experiments.Config{Seed: 1, Jobs: 60, Workers: 1})
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
		r := runRow(b, "fig3b", experiments.Config{Seed: 1, Jobs: 60, Workers: 1})
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
		r := runRow(b, "fig4a", experiments.Config{Seed: 1, Jobs: 60, Workers: 1})
		s1slow, s3fast = r.Value("slow-S1"), r.Value("fast-S3")
	}
	b.ReportMetric(100*s1slow, "S1-slow-load-%")
	b.ReportMetric(100*s3fast, "S3-fast-load-%")
}

// BenchmarkFig4bCostTime regenerates Fig. 4(b) on a reduced flow (E5).
func BenchmarkFig4bCostTime(b *testing.B) {
	var costS3, taskS3 float64
	for i := 0; i < b.N; i++ {
		r := runRow(b, "fig4b", experiments.Config{Seed: 1, Jobs: 60, Workers: 1})
		costS3, taskS3 = r.Value("cost-S3"), r.Value("task-S3")
	}
	b.ReportMetric(costS3, "S3-rel-cost")
	b.ReportMetric(taskS3, "S3-rel-task")
}

// BenchmarkFig4cTTL regenerates Fig. 4(c) on a reduced flow (E6).
func BenchmarkFig4cTTL(b *testing.B) {
	var ttlS3, devMS1 float64
	for i := 0; i < b.N; i++ {
		r := runRow(b, "fig4c", experiments.Config{Seed: 1, Jobs: 60, Workers: 1})
		ttlS3, devMS1 = r.Value("ttl-S3"), r.Value("dev-MS1")
	}
	b.ReportMetric(ttlS3, "S3-rel-ttl")
	b.ReportMetric(devMS1, "MS1-rel-dev")
}

// BenchmarkPolicyWaitTimes regenerates the §5 policy comparison (E7).
func BenchmarkPolicyWaitTimes(b *testing.B) {
	var fcfs, easy, res float64
	for i := 0; i < b.N; i++ {
		r := runRow(b, "policies", experiments.Config{Seed: 1, Jobs: 250})
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
		r := runRow(b, "ablation-collision", experiments.Config{Seed: 1, Jobs: 40, Workers: 1})
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
		r := runRow(b, "ablation-levels", experiments.Config{Seed: 1, Jobs: 40, Workers: 1})
		s1, ms1 = r.Value("evaluations-S1"), r.Value("evaluations-MS1")
	}
	b.ReportMetric(ms1/s1, "MS1/S1-evals")
}

// BenchmarkComparison regenerates the E10 scheduler comparison.
func BenchmarkComparison(b *testing.B) {
	var cwCost, mmCost float64
	for i := 0; i < b.N; i++ {
		r := runRow(b, "comparison", experiments.Config{Seed: 1, Jobs: 40, Workers: 1})
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
		r := runRow(b, "local-passing", experiments.Config{Seed: 1, Jobs: 60, Workers: 1})
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

// BenchmarkServiceKnee measures a started service's throughput against the
// number of closed-loop clients, C ∈ {1, 4, 16, 64}: b.N jobs of the §4
// corpus, job i from client i mod C under strategy S1, S2, S3, MS1 in turn,
// through a journal that syncs every record (FsyncAlways) in b.TempDir().
// A client submits its next job once the last one is terminal: OnTerminal
// hands each record to its client's channel, so no client polls. It reports
// jobs/s, journal fsyncs per job, the process's CPU ms per job (user and
// system, getrusage) and the share of the b.N jobs that completed by their
// deadline. It claims and gates nothing; it is where a change to the
// journal's sync shows at the knee.
func BenchmarkServiceKnee(b *testing.B) {
	env := workload.New(workload.Default(1)).Environment(2)
	cycle := []string{"S1", "S2", "S3", "MS1"}
	for _, clients := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("C=%d", clients), func(b *testing.B) {
			flow := workload.New(workload.Default(2)).Flow(0, b.N, 0)
			wires := make([]jobio.Job, len(flow))
			owner := make(map[string]int, len(flow))
			for i, a := range flow {
				wires[i] = jobio.FromJob(a.Job)
				wires[i].Deadline = a.Job.Deadline - a.At // the budget, anchored at the service's arrival tick
				owner[a.Job.Name] = i % clients
			}
			// A client has one job outstanding, so OnTerminal's send, made
			// under the service's lock, never blocks on a buffer of one.
			outcomes := make([]chan service.Record, clients)
			for c := range outcomes {
				outcomes[c] = make(chan service.Record, 1)
			}
			reg := telemetry.NewRegistry()
			jnl, _, err := journal.Open(journal.Options{Dir: b.TempDir(), Fsync: journal.FsyncAlways,
				IsTerminal: service.Terminal, Telemetry: reg})
			if err != nil {
				b.Fatal(err)
			}
			defer jnl.Close()
			srv, err := service.New(service.Config{
				Env: env, Journal: jnl, Telemetry: reg,
				Sched:      metasched.Config{Seed: 1},
				OnTerminal: func(r service.Record) { outcomes[owner[r.ID]] <- r },
			})
			if err != nil {
				b.Fatal(err)
			}
			srv.Start()
			fsyncs := reg.Counter("grid_journal_fsyncs_total", "")
			fsyncs0, cpu0 := fsyncs.Value(), cpuTime()
			errs := make([]error, clients)
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := c; i < len(wires); i += clients {
						_, err := srv.Submit(wires[i], cycle[i%len(cycle)], 0)
						var se *service.SubmitError
						if err != nil && !(errors.As(err, &se) && se.Code == service.CodeInfeasible) {
							errs[c] = fmt.Errorf("submit %s: %w", wires[i].Name, err)
							return
						}
						<-outcomes[c] // an infeasible job is rejected, and terminal, inside Submit
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			cpu := cpuTime() - cpu0
			fsynced := fsyncs.Value() - fsyncs0
			if err := errors.Join(errs...); err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				b.Fatal(err)
			}
			met := 0
			for _, r := range srv.Results() {
				if r.State == metasched.StateCompleted && r.Finish <= r.Job.Deadline {
					met++
				}
			}
			n := float64(b.N)
			b.ReportMetric(n/elapsed.Seconds(), "jobs/s")
			b.ReportMetric(float64(fsynced)/n, "fsyncs/job")
			b.ReportMetric(float64(cpu.Microseconds())/1e3/n, "cpu-ms/job")
			b.ReportMetric(float64(met)/n, "deadline_met_ratio")
		})
	}
}

// cpuTime is the user and system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
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

// BenchmarkFaultedVOWarmup runs the untimed warm-up that the benchmark
// ledger's vo_faults workload makes before it starts its clock, one per
// iteration: 200 jobs of the Fig. 4 corpus at seed 1, strategies S1, S2, S3
// and MS1 in turn, through a bare VO planning under MinCost with external
// load, node and domain outages and mid-run task failures, a registry and
// an event tracer attached (benchmark/vo.go, newVORun). The warm-up is most
// of vo_faults' setup_s, and the critical-works DP is most of the warm-up,
// so this is where a change to the DP shows without the noise of a whole
// process.
func BenchmarkFaultedVOWarmup(b *testing.B) {
	cfg := workload.Default(1)
	cfg.DeadlineFactor = 1.8
	cfg.TransferLo, cfg.TransferHi = 2, 8
	cfg.PipelineProb, cfg.MaxPipeline = 0.6, 3
	cfg.MinWidth, cfg.MaxWidth = 2, 3
	cfg.MinLayers, cfg.MaxLayers = 3, 4
	cfg.MeanInterarrival = 16
	flow := workload.New(cfg).Flow(0, 200, 0)
	until := flow[len(flow)-1].At + 200
	mtbf, mttr := faults.ForAvailability(0.98, 20)
	var events int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := sim.New()
		vo := metasched.NewVO(engine, workload.New(workload.Default(1)).Environment(2), metasched.Config{
			ExternalMeanGap: 5, ExternalLead: 8, ExternalDurLo: 10, ExternalDurHi: 30, ExternalUntil: until,
			Objective: criticalworks.MinCost,
			Seed:      1,
			Telemetry: telemetry.NewRegistry(),
			Faults: faults.Config{
				MTBF: mtbf, MTTR: mttr, DomainOutageProb: 0.1,
				TaskFailRate: 0.05, MaxRetries: 2, Until: until, Seed: 1,
			},
			Tracer: metasched.TracerFunc(func(metasched.Event) { events++ }),
		})
		for k, a := range flow {
			if err := vo.Submit(a.Job, strategy.AllTypes[k%len(strategy.AllTypes)], a.At); err != nil {
				b.Fatal(err)
			}
		}
		engine.Run()
		if len(vo.Results()) != len(flow) {
			b.Fatalf("results = %d, want %d", len(vo.Results()), len(flow))
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
