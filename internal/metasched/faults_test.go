package metasched

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/faults"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// faultyConfig is an aggressive-but-survivable fault setup used by the
// stochastic tests below.
func faultyConfig(seed uint64, until simtime.Time) faults.Config {
	return faults.Config{
		MTBF:             150,
		MTTR:             15,
		DomainOutageProb: 0.2,
		TaskFailRate:     0.1,
		MaxRetries:       2,
		Until:            until,
		Seed:             seed,
	}
}

func TestZeroFaultConfigMatchesSeedBehavior(t *testing.T) {
	// A VO with an explicitly zero fault config must produce a trace
	// byte-identical to one predating fault support: no extra events, no
	// shifted randomness.
	run := func(cfg Config) []Event {
		e := sim.New()
		gen := workload.New(workload.Default(11))
		env := gen.Environment(2)
		var tr MemoryTracer
		cfg.ExternalMeanGap = 8
		cfg.ExternalLead = 2
		cfg.ExternalDurLo = 2
		cfg.ExternalDurHi = 12
		cfg.ExternalUntil = 600
		cfg.Seed = 11
		cfg.Tracer = &tr
		vo := NewVO(e, env, cfg)
		for _, a := range gen.Flow(0, 20, 0) {
			vo.Submit(a.Job, strategy.S1, a.At)
		}
		e.Run()
		return tr.Events()
	}
	plain := run(Config{})
	zeroed := run(Config{Faults: faults.Config{}})
	if !reflect.DeepEqual(plain, zeroed) {
		t.Fatal("zero fault config changed the event stream")
	}
	for _, ev := range plain {
		switch ev.Kind {
		case EventNodeDown, EventNodeUp, EventTaskFailed, EventRetry:
			t.Fatalf("fault event %v in a fault-free run", ev.Kind)
		}
	}
}

func TestNodeOutageEvictsPlannedJob(t *testing.T) {
	// One domain, three tiers. The job's cheapest plan lands on the
	// discounted slow node, delayed behind an external reservation; the
	// node then crashes before the job starts. The plan must be evicted
	// and the job must recover on an up node of another tier.
	e := sim.New()
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "fast", 1.0, "dom"),
		resource.NewNode(1, "medium", 0.5, "dom"),
		resource.NewNode(2, "slow", 0.27, "dom"), // discounted: strictly cheapest
	})
	var tr MemoryTracer
	vo := NewVO(e, env, Config{Objective: criticalworks.MinCost, Tracer: &tr})

	// Delay the slow node so the plan starts in the future (evictable).
	if !vo.InjectExternal(2, simtime.Interval{Start: 0, End: 10}) {
		t.Fatal("pre-load rejected")
	}
	b := dag.NewBuilder("victim").Deadline(80)
	b.Task("T", 4, 16)
	vo.Submit(b.MustBuild(), strategy.S1, 0)

	// Crash the slow node at t=2, before the planned start at t=10.
	e.At(2, "crash", func() {
		vo.outageDown(faults.Outage{Node: 2, Interval: simtime.Interval{Start: 2, End: 40}})
	})
	e.At(40, "repair", func() {
		vo.outageUp(faults.Outage{Node: 2, Interval: simtime.Interval{Start: 2, End: 40}})
	})
	e.Run()

	r := vo.Results()[0]
	if r.State != StateCompleted {
		t.Fatalf("state = %v", r.State)
	}
	if r.TaskFailures != 0 {
		t.Errorf("planned job recorded %d task failures", r.TaskFailures)
	}
	if r.Fallbacks == 0 {
		t.Error("no fallback after outage eviction")
	}
	if tr.Count(EventNodeDown) != 1 || tr.Count(EventEvict) != 1 {
		t.Errorf("events: node-down=%d evict=%d", tr.Count(EventNodeDown), tr.Count(EventEvict))
	}
	// The recovery plan must avoid the down node.
	for _, p := range r.Placements {
		if p.Node == 2 {
			t.Errorf("task placed on the crashed node: %+v", p)
		}
	}
	if env.Node(2).Downtime(e.Now()) != 38 {
		t.Errorf("downtime = %d, want 38", env.Node(2).Downtime(e.Now()))
	}
}

func TestNodeOutageKillsRunningJobAndRetries(t *testing.T) {
	// The job starts immediately on the only fast node; the node crashes
	// mid-run. The job must record a task failure, retry with backoff and
	// complete after the node recovers.
	e := sim.New()
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "fast", 1.0, "dom"),
	})
	var tr MemoryTracer
	vo := NewVO(e, env, Config{
		Tracer: &tr,
		// Backoff 5 outlasts the 4-tick outage: the single retry lands
		// after the node is repaired.
		Faults: faults.Config{TaskFailRate: 0, MaxRetries: 3, RetryBackoff: 5},
	})
	b := dag.NewBuilder("runner").Deadline(60)
	b.Task("T", 10, 20)
	vo.Submit(b.MustBuild(), strategy.S1, 0)

	out := faults.Outage{Node: 0, Interval: simtime.Interval{Start: 4, End: 8}}
	e.At(4, "crash", func() { vo.outageDown(out) })
	e.At(8, "repair", func() { vo.outageUp(out) })
	e.Run()

	r := vo.Results()[0]
	if r.State != StateCompleted {
		t.Fatalf("state = %v", r.State)
	}
	if r.TaskFailures != 1 || r.Retries != 1 {
		t.Errorf("failures/retries = %d/%d, want 1/1", r.TaskFailures, r.Retries)
	}
	if r.Downtime <= 0 {
		t.Errorf("downtime = %d, want > 0", r.Downtime)
	}
	if tr.Count(EventTaskFailed) != 1 || tr.Count(EventRetry) != 1 {
		t.Errorf("events: task-failed=%d retry=%d", tr.Count(EventTaskFailed), tr.Count(EventRetry))
	}
	stats := vo.FaultStats()
	if stats.TaskFailures != 1 || stats.Retries != 1 || stats.Recoveries != 1 {
		t.Errorf("fault stats = %+v", stats)
	}
	// The retry fired after the backoff: the job's actual start moved
	// past the repair at t=8.
	if r.ActualStart < 8 {
		t.Errorf("actual start %d precedes the repair", r.ActualStart)
	}
}

func TestDomainOutageForcesReallocation(t *testing.T) {
	// Two domains; the victim's domain goes fully dark for a long window
	// shortly after the job starts there. In-domain recovery is impossible
	// (every candidate down), so the metascheduler must move the job.
	e := sim.New()
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "a-fast", 1.0, "dom-a"),
		resource.NewNode(1, "a-slow", 0.27, "dom-a"),
		resource.NewNode(2, "b-fast", 1.0, "dom-b"),
		resource.NewNode(3, "b-slow", 0.27, "dom-b"),
	})
	var tr MemoryTracer
	vo := NewVO(e, env, Config{Objective: criticalworks.MinCost, Tracer: &tr})

	// Pre-load dom-b so dom-a is the least-loaded domain and takes the
	// job; the blackout then forces it back out to dom-b.
	if !vo.InjectExternal(2, simtime.Interval{Start: 0, End: 8}) ||
		!vo.InjectExternal(3, simtime.Interval{Start: 0, End: 8}) {
		t.Fatal("pre-load rejected")
	}
	b := dag.NewBuilder("mover").Deadline(100)
	b.Task("T", 4, 16)
	vo.Submit(b.MustBuild(), strategy.S1, 0)

	out := faults.Outage{Node: 0, Domain: "dom-a", Interval: simtime.Interval{Start: 2, End: 90}}
	e.At(2, "blackout", func() { vo.outageDown(out) })
	e.At(90, "repair", func() { vo.outageUp(out) })
	e.Run()

	r := vo.Results()[0]
	if r.State != StateCompleted {
		t.Fatalf("state = %v", r.State)
	}
	if r.Domain != "dom-b" {
		t.Errorf("final domain = %s, want dom-b", r.Domain)
	}
	if r.Reallocations != 1 {
		t.Errorf("reallocations = %d, want 1", r.Reallocations)
	}
	if vo.FaultStats().DomainOutages != 1 {
		t.Errorf("domain outages = %d", vo.FaultStats().DomainOutages)
	}
}

func TestMidRunTaskFailureFromRate(t *testing.T) {
	// With TaskFailRate 1 every activation that runs ≥ 2 ticks dies; with
	// MaxRetries 0 the job must exhaust levels/domains and reject.
	e := sim.New()
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "fast", 1.0, "dom"),
	})
	vo := NewVO(e, env, Config{
		Faults: faults.Config{TaskFailRate: 1, MaxRetries: 0, Seed: 1},
	})
	b := dag.NewBuilder("doomed").Deadline(50)
	b.Task("T", 10, 20)
	vo.Submit(b.MustBuild(), strategy.S1, 0)
	e.Run()

	r := vo.Results()[0]
	if r.State != StateRejected {
		t.Fatalf("state = %v, want rejected (every run dies)", r.State)
	}
	if r.TaskFailures == 0 {
		t.Error("no task failures recorded")
	}
	if r.Retries != 0 {
		t.Errorf("retries = %d with MaxRetries 0", r.Retries)
	}
}

// faultyVOConfig is the VO of the stochastic tests: faultyConfig's outages and
// task failures on top of external background load.
func faultyVOConfig(seed uint64, until simtime.Time) Config {
	return Config{
		ExternalMeanGap: 10,
		ExternalLead:    3,
		ExternalDurLo:   4,
		ExternalDurHi:   15,
		ExternalUntil:   until,
		Objective:       criticalworks.MinCost,
		Seed:            seed,
		Faults:          faultyConfig(seed, until),
	}
}

// runFaultyVO executes one full faulty run and returns the JSONL trace
// bytes and results.
func runFaultyVO(t *testing.T, seed uint64) ([]byte, []*JobResult) {
	t.Helper()
	e := sim.New()
	gen := workload.New(workload.Default(seed))
	env := gen.Environment(2)
	var buf bytes.Buffer
	tracer := NewJSONLTracer(&buf)
	flow := gen.Flow(0, 30, 0)
	until := flow[len(flow)-1].At + 200
	cfg := faultyVOConfig(seed, until)
	cfg.Tracer = tracer
	vo := NewVO(e, env, cfg)
	for _, a := range flow {
		vo.Submit(a.Job, strategy.S2, a.At)
	}
	e.Run()
	if err := tracer.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), vo.Results()
}

func TestFaultInjectionDeterministic(t *testing.T) {
	// Two runs with the same seed and fault schedule must produce
	// byte-identical trace streams and identical JobResult records.
	trace1, res1 := runFaultyVO(t, 5)
	trace2, res2 := runFaultyVO(t, 5)
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("trace streams differ across identical faulty runs")
	}
	if len(res1) != len(res2) {
		t.Fatalf("result counts differ: %d vs %d", len(res1), len(res2))
	}
	for i := range res1 {
		a, b := *res1[i], *res2[i]
		// Pointer-valued fields compare by content.
		if a.Job.Name != b.Job.Name || a.State != b.State || a.Finish != b.Finish ||
			a.Cost != b.Cost || a.TaskFailures != b.TaskFailures || a.Retries != b.Retries ||
			a.Downtime != b.Downtime || a.Fallbacks != b.Fallbacks ||
			a.Reallocations != b.Reallocations || !reflect.DeepEqual(a.TTLs, b.TTLs) ||
			!reflect.DeepEqual(a.Placements, b.Placements) {
			t.Fatalf("result %d differs:\n%+v\nvs\n%+v", i, a, b)
		}
	}
}

func TestFaultyRunAllJobsTerminal(t *testing.T) {
	_, results := runFaultyVO(t, 9)
	if len(results) != 30 {
		t.Fatalf("results = %d, want 30", len(results))
	}
	failures := 0
	for _, r := range results {
		if r.State != StateCompleted && r.State != StateRejected {
			t.Fatalf("job %s in non-terminal state %v", r.Job.Name, r.State)
		}
		failures += r.TaskFailures
		if r.Downtime < 0 {
			t.Errorf("job %s negative downtime %d", r.Job.Name, r.Downtime)
		}
	}
	if failures == 0 {
		t.Error("aggressive fault config produced no task failures")
	}
}

// TestCompletedPlacementsAreDenseByTaskID: a completed job's Placements is a
// table by the scheduled DAG's TaskID — one entry per task, each at its own
// ID, none left empty — also when the job reached completion through task
// failures, retries, fallbacks and reallocations.
func TestCompletedPlacementsAreDenseByTaskID(t *testing.T) {
	completed, recovered := 0, 0
	for _, seed := range []uint64{5, 9, 13, 21} {
		_, results := runFaultyVO(t, seed)
		for _, r := range results {
			if r.State != StateCompleted {
				continue
			}
			completed++
			if r.TaskFailures+r.Fallbacks+r.Reallocations > 0 {
				recovered++
			}
			if len(r.Placements) != r.Scheduled.NumTasks() {
				t.Fatalf("seed %d: %s has %d placements for %d scheduled tasks",
					seed, r.Job.Name, len(r.Placements), r.Scheduled.NumTasks())
			}
			for i, p := range r.Placements {
				if p.Task != dag.TaskID(i) || p.Window.Empty() {
					t.Errorf("seed %d: %s: Placements[%d] = %+v", seed, r.Job.Name, i, p)
				}
			}
		}
	}
	if completed == 0 || recovered == 0 {
		t.Fatalf("%d completed jobs, %d of them after a recovery: the fixture checks nothing", completed, recovered)
	}
}

func TestCompletedPlacementsAvoidVoidedWindows(t *testing.T) {
	// No completed job's task window may overlap an outage of the node it
	// ran on: crashes void those reservations and force replanning.
	_, results := runFaultyVO(t, 13)
	gen := workload.New(workload.Default(13))
	env := gen.Environment(2)
	// Recompute the outage schedule the run used.
	flow := gen.Flow(0, 30, 0)
	until := flow[len(flow)-1].At + 200
	outages := faults.Schedule(faultyConfig(13, until), env)
	downs := map[resource.NodeID][]simtime.Interval{}
	for _, o := range outages {
		ids := []resource.NodeID{o.Node}
		if o.Domain != "" {
			ids = ids[:0]
			for _, n := range env.ByDomain(o.Domain) {
				ids = append(ids, n.ID)
			}
		}
		for _, id := range ids {
			downs[id] = append(downs[id], o.Interval)
		}
	}
	for _, r := range results {
		if r.State != StateCompleted {
			continue
		}
		for _, p := range r.Placements {
			for _, iv := range downs[p.Node] {
				// Only a window still unfinished at outage start would
				// have been voided; overlap implies the run kept a
				// reservation through a crash.
				if p.Window.Overlaps(iv) && p.Window.End > iv.Start {
					t.Errorf("job %s task window %v on node %d overlaps outage %v",
						r.Job.Name, p.Window, p.Node, iv)
				}
			}
		}
	}
}

// TestFaultStatsCountsTheTrace: FaultStats is read off the finished jobs'
// results plus the outage counts; over a whole faulty run it agrees with the
// events the VO traced.
func TestFaultStatsCountsTheTrace(t *testing.T) {
	e := sim.New()
	gen := workload.New(workload.Default(9))
	env := gen.Environment(2)
	flow := gen.Flow(0, 30, 0)
	cfg := faultyVOConfig(9, flow[len(flow)-1].At+200)
	var tr MemoryTracer
	cfg.Tracer = &tr
	vo := NewVO(e, env, cfg)
	for _, a := range flow {
		vo.Submit(a.Job, strategy.S2, a.At)
	}
	e.Run()
	domainOutages := 0
	for _, ev := range tr.Events() {
		if ev.Kind == EventNodeDown && ev.Domain != "" {
			domainOutages++
		}
	}
	f := vo.FaultStats()
	if f.TaskFailures == 0 || f.NodeOutages == 0 {
		t.Fatalf("the aggressive fault config broke nothing: %v", f)
	}
	if f.TaskFailures != tr.Count(EventTaskFailed) || f.Retries != tr.Count(EventRetry) ||
		f.NodeOutages != tr.Count(EventNodeDown) || f.DomainOutages != domainOutages {
		t.Errorf("FaultStats %v; trace: %d task failures, %d retries, %d outages (%d domain)",
			f, tr.Count(EventTaskFailed), tr.Count(EventRetry), tr.Count(EventNodeDown), domainOutages)
	}
}

func TestFaultStatsString(t *testing.T) {
	f := FaultStats{NodeOutages: 3, DomainOutages: 1, TaskFailures: 4, Retries: 5, Recoveries: 3,
		Downtime: 40, DowntimeJobs: 2}
	if got, want := f.String(), "outages=3(domain=1) task-failures=4 retries=5 recoveries=3 mean-downtime=20.0"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := (FaultStats{}).String(); got != "outages=0(domain=0) task-failures=0 retries=0 recoveries=0 mean-downtime=0.0" {
		t.Errorf("zero String() = %q", got)
	}
}
