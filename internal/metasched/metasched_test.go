package metasched

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// twoDomainEnv builds a small VO environment: two domains, four tiers in
// each.
func twoDomainEnv() *resource.Environment {
	perfs := []float64{1.0, 0.5, 0.33, 0.27}
	var nodes []*resource.Node
	id := 0
	for d := 0; d < 2; d++ {
		for _, p := range perfs {
			nodes = append(nodes, resource.NewNode(resource.NodeID(id),
				fmt.Sprintf("n%d", id), p, fmt.Sprintf("dom-%d", d)))
			id++
		}
	}
	return resource.NewEnvironment(nodes)
}

func simpleJob(name string, deadline simtime.Time) *dag.Job {
	b := dag.NewBuilder(name).Deadline(deadline)
	b.Task("A", 2, 10)
	b.Task("B", 3, 15)
	b.Edge("d", "A", "B", 1, 5)
	return b.MustBuild()
}

func TestSingleJobCompletes(t *testing.T) {
	e := sim.New()
	env := twoDomainEnv()
	vo := NewVO(e, env, Config{})
	job := simpleJob("j1", 50)
	vo.Submit(job, strategy.S1, 5)
	e.Run()

	results := vo.Results()
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	r := results[0]
	if r.State != StateCompleted {
		t.Fatalf("state = %v", r.State)
	}
	if r.Finish > 50+5 {
		t.Errorf("finish = %d beyond release+deadline window", r.Finish)
	}
	if r.StartDeviation() != 0 {
		t.Errorf("deviation = %d with no dynamics", r.StartDeviation())
	}
	if len(r.TTLs) != 1 || r.TTLs[0] != r.Finish-r.Arrival {
		t.Errorf("TTLs = %v (finish %d, arrival %d)", r.TTLs, r.Finish, r.Arrival)
	}
	if r.Fallbacks != 0 || r.Reallocations != 0 {
		t.Errorf("fallbacks/reallocations = %d/%d", r.Fallbacks, r.Reallocations)
	}
	if len(r.Placements) != 2 {
		t.Errorf("placements = %d", len(r.Placements))
	}
	if r.MeanTaskTime <= 0 || r.Cost <= 0 {
		t.Errorf("metrics not recorded: %+v", r)
	}
}

func TestDeadlineZeroRejected(t *testing.T) {
	e := sim.New()
	env := twoDomainEnv()
	vo := NewVO(e, env, Config{})
	// Deadline 1 cannot fit task A (2 ticks minimum).
	vo.Submit(simpleJob("tight", 1), strategy.S1, 0)
	e.Run()
	r := vo.Results()[0]
	if r.State != StateRejected {
		t.Fatalf("state = %v, want rejected", r.State)
	}
	// The metascheduler tried the other domain before giving up.
	if r.Reallocations != 1 {
		t.Errorf("reallocations = %d, want 1", r.Reallocations)
	}
}

func TestMetaschedulerBalancesDomains(t *testing.T) {
	e := sim.New()
	env := twoDomainEnv()
	vo := NewVO(e, env, Config{})
	vo.Submit(simpleJob("a", 100), strategy.S1, 0)
	vo.Submit(simpleJob("b", 100), strategy.S1, 0)
	e.Run()
	doms := map[string]int{}
	for _, r := range vo.Results() {
		if r.State != StateCompleted {
			t.Fatalf("job %s state %v", r.Job.Name, r.State)
		}
		doms[r.Domain]++
	}
	if len(doms) != 2 {
		t.Errorf("both jobs landed in the same domain: %v", doms)
	}
}

func TestAllTypesRunThroughVO(t *testing.T) {
	for _, typ := range strategy.AllTypes {
		e := sim.New()
		env := twoDomainEnv()
		vo := NewVO(e, env, Config{})
		vo.Submit(simpleJob("j-"+typ.String(), 60), typ, 0)
		e.Run()
		r := vo.Results()[0]
		if r.State != StateCompleted {
			t.Errorf("%v: state = %v", typ, r.State)
		}
		if r.Type != typ {
			t.Errorf("recorded type = %v", r.Type)
		}
	}
}

func TestExternalLoadCausesDynamics(t *testing.T) {
	// Aggressive background load against a steady flow: every job must
	// reach a terminal state, and at least some dynamics (fallbacks,
	// reallocations or eviction TTLs) must appear.
	e := sim.New()
	gen := workload.New(workload.Default(41))
	env := gen.Environment(3)
	vo := NewVO(e, env, Config{
		ExternalMeanGap: 4,
		ExternalLead:    3,
		ExternalDurLo:   5,
		ExternalDurHi:   20,
		ExternalUntil:   2500,
		Seed:            41,
	})
	flow := gen.Flow(0, 60, 0)
	for _, a := range flow {
		vo.Submit(a.Job, strategy.S2, a.At)
	}
	e.Run()
	results := vo.Results()
	if len(results) != 60 {
		t.Fatalf("results = %d, want 60", len(results))
	}
	dynamics := 0
	for _, r := range results {
		if r.State != StateCompleted && r.State != StateRejected {
			t.Fatalf("job %s in non-terminal state %v", r.Job.Name, r.State)
		}
		dynamics += r.Fallbacks + r.Reallocations
		if r.State == StateCompleted && r.StartDeviation() > 0 && len(r.TTLs) < 2 {
			t.Errorf("job %s deviated without recorded evictions", r.Job.Name)
		}
	}
	if dynamics == 0 {
		t.Error("no fallbacks or reallocations under aggressive external load")
	}
}

func TestCompletedPlacementsNeverOverlap(t *testing.T) {
	e := sim.New()
	gen := workload.New(workload.Default(17))
	env := gen.Environment(3)
	vo := NewVO(e, env, Config{
		ExternalMeanGap: 10,
		ExternalLead:    2,
		ExternalDurLo:   3,
		ExternalDurHi:   10,
		ExternalUntil:   1500,
		Seed:            17,
	})
	for _, a := range gen.Flow(1, 40, 0) {
		vo.Submit(a.Job, strategy.S1, a.At)
	}
	e.Run()
	type slot struct {
		iv  simtime.Interval
		job string
	}
	byNode := map[resource.NodeID][]slot{}
	for _, r := range vo.Results() {
		if r.State != StateCompleted {
			continue
		}
		for _, p := range r.Placements {
			byNode[p.Node] = append(byNode[p.Node], slot{p.Window, r.Job.Name})
		}
	}
	for n, slots := range byNode {
		for i := range slots {
			for j := i + 1; j < len(slots); j++ {
				if slots[i].iv.Overlaps(slots[j].iv) {
					t.Fatalf("node %d: %s %v overlaps %s %v", n,
						slots[i].job, slots[i].iv, slots[j].job, slots[j].iv)
				}
			}
		}
	}
}

func TestNodeLoadWithinBounds(t *testing.T) {
	e := sim.New()
	gen := workload.New(workload.Default(23))
	env := gen.Environment(2)
	vo := NewVO(e, env, Config{})
	for _, a := range gen.Flow(0, 30, 0) {
		vo.Submit(a.Job, strategy.S3, a.At)
	}
	end := e.Run()
	load := vo.NodeLoad(simtime.Interval{Start: 0, End: end + 1})
	if len(load) == 0 {
		t.Fatal("no load recorded")
	}
	for g, v := range load {
		if v < 0 || v > 1 {
			t.Errorf("group %v load = %v", g, v)
		}
	}
}

func TestDeterministicEvictionFallback(t *testing.T) {
	// One domain: a fast node and a slow node. The job's cheapest plan
	// lands on the cheap slow node, delayed behind a pre-existing external
	// reservation; a second external then claims the planned window. The
	// job must fall back to another supporting level and still complete.
	e := sim.New()
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "fast", 1.0, "dom"),
		resource.NewNode(1, "slow", 0.27, "dom"),
	})
	vo := NewVO(e, env, Config{Objective: criticalworks.MinCost})

	// The slow node is busy [0,10): the plan must start at 10 — in the
	// future, so the job stays in StatePlanned and is evictable.
	if !vo.InjectExternal(1, simtime.Interval{Start: 0, End: 10}) {
		t.Fatal("pre-load rejected")
	}
	b := dag.NewBuilder("victim").Deadline(80)
	b.Task("T", 4, 16) // level 4: 16 ticks on the slow node, CF ceil(16/16)=1
	job := b.MustBuild()
	vo.Submit(job, strategy.S1, 0)

	evicted := false
	e.At(2, "attack", func() {
		// Claim [12,30) on the slow node: overlaps the planned [10,26).
		evicted = vo.InjectExternal(1, simtime.Interval{Start: 12, End: 30})
	})
	e.Run()

	if !evicted {
		t.Fatal("attack external was rejected — eviction path not exercised")
	}
	r := vo.Results()[0]
	if r.State != StateCompleted {
		t.Fatalf("state = %v", r.State)
	}
	if r.Fallbacks == 0 {
		t.Errorf("no fallback recorded: %+v", r)
	}
	if len(r.TTLs) != 2 {
		t.Errorf("TTLs = %v, want evicted plan + survivor", r.TTLs)
	}
	if r.StartDeviation() == 0 {
		t.Error("fallback did not register a start deviation")
	}
	if r.ActualStart == r.PlannedStart {
		t.Errorf("fallback changed nothing: %+v", r)
	}
}

func TestStateString(t *testing.T) {
	if StatePlanned.String() != "planned" || StateExecuting.String() != "executing" ||
		StateCompleted.String() != "completed" || StateRejected.String() != "rejected" {
		t.Error("state names changed")
	}
}

func TestQuickVODeterministicAndTerminal(t *testing.T) {
	run := func(seed uint64) (completed, rejected int, cost float64) {
		e := sim.New()
		gen := workload.New(workload.Default(seed))
		env := gen.Environment(2)
		vo := NewVO(e, env, Config{
			ExternalMeanGap: 8,
			ExternalLead:    2,
			ExternalDurLo:   2,
			ExternalDurHi:   12,
			ExternalUntil:   600,
			Seed:            seed,
		})
		for _, a := range gen.Flow(0, 15, 0) {
			vo.Submit(a.Job, strategy.AllTypes[seed%4], a.At)
		}
		e.Run()
		for _, r := range vo.Results() {
			switch r.State {
			case StateCompleted:
				completed++
				cost += r.Cost
			case StateRejected:
				rejected++
			default:
				return -1, -1, 0
			}
		}
		return completed, rejected, cost
	}
	f := func(seed uint64) bool {
		c1, r1, cost1 := run(seed)
		c2, r2, cost2 := run(seed)
		if c1 < 0 || c1+r1 != 15 {
			return false
		}
		return c1 == c2 && r1 == r2 && cost1 == cost2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestSubmitGuards(t *testing.T) {
	e := sim.New()
	vo := NewVO(e, twoDomainEnv(), Config{})
	if err := vo.Submit(simpleJob("dup", 50), strategy.S1, 5); err != nil {
		t.Fatalf("first submission rejected: %v", err)
	}
	if err := vo.Submit(simpleJob("dup", 60), strategy.S2, 7); err == nil {
		t.Error("duplicate job name accepted")
	}
	e.Run()
	// Only one "dup" passed through the pipeline.
	if n := len(vo.Results()); n != 1 {
		t.Fatalf("got %d results, want 1", n)
	}

	// Arrivals in the engine's past must error, not panic.
	if err := vo.Submit(simpleJob("late", 90), strategy.S1, e.Now()-1); err == nil {
		t.Error("past arrival accepted")
	}

	vo.Close()
	if err := vo.Submit(simpleJob("after", 200), strategy.S1, e.Now()+10); err == nil {
		t.Error("submission after Close accepted")
	}
	vo.Close() // idempotent
}

func TestDomainFilterExcludesDomains(t *testing.T) {
	// With dom-0 vetoed, every job must land in dom-1; with both vetoed the
	// job is rejected on arrival.
	e := sim.New()
	vo := NewVO(e, twoDomainEnv(), Config{
		DomainFilter: func(d string) bool { return d != "dom-0" },
	})
	if err := vo.Submit(simpleJob("a", 100), strategy.S1, 0); err != nil {
		t.Fatal(err)
	}
	e.Run()
	r := vo.Results()[0]
	if r.State != StateCompleted || r.Domain != "dom-1" {
		t.Fatalf("job ended %v in %q, want completed in dom-1", r.State, r.Domain)
	}

	e2 := sim.New()
	vo2 := NewVO(e2, twoDomainEnv(), Config{
		DomainFilter: func(string) bool { return false },
	})
	if err := vo2.Submit(simpleJob("b", 100), strategy.S1, 0); err != nil {
		t.Fatal(err)
	}
	e2.Run()
	if vo2.Results()[0].State != StateRejected {
		t.Fatal("job placed despite every domain vetoed")
	}
}

// TestBuildCtxCancellationRejectsJob: a job whose build context is already
// cancelled can never activate a strategy, and a job whose build panics gets
// the panic back from the generator as an error (the third poll is inside
// the first level's build). Either way the job is rejected cleanly, without
// wedging or crashing, and the next job is placed — one job at a time and in
// one same-tick batch.
func TestBuildCtxCancellationRejectsJob(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, placers := range []int{0, 4} {
		polls := 0
		for name, ctx := range map[string]context.Context{
			"cancelled": cancelled,
			"panicking": panicCtx{Context: context.Background(), polls: &polls, n: 3},
		} {
			e := sim.New()
			vo := NewVO(e, twoDomainEnv(), Config{
				Placers: placers,
				BuildCtx: func(job string) (context.Context, context.CancelFunc) {
					if job == "doomed" {
						return ctx, func() {}
					}
					return context.Background(), func() {}
				},
			})
			for _, job := range []string{"doomed", "fine"} {
				if err := vo.Submit(simpleJob(job, 100), strategy.S1, 0); err != nil {
					t.Fatal(err)
				}
			}
			e.Run()
			byName := map[string]State{}
			for _, r := range vo.Results() {
				byName[r.Job.Name] = r.State
			}
			if byName["doomed"] != StateRejected {
				t.Errorf("placers=%d, %s: doomed job ended %v, want rejected", placers, name, byName["doomed"])
			}
			if byName["fine"] != StateCompleted {
				t.Errorf("placers=%d, %s: unaffected job ended %v, want completed", placers, name, byName["fine"])
			}
		}
		if polls < 3 {
			t.Fatalf("placers=%d: the panicking build polled its context %d times; it never panicked", placers, polls)
		}
	}
}

// panicCtx is a build context whose Err panics on its nth poll.
type panicCtx struct {
	context.Context
	polls *int
	n     int
}

func (c panicCtx) Err() error {
	*c.polls++
	if *c.polls == c.n {
		panic("poll exploded")
	}
	return c.Context.Err()
}
