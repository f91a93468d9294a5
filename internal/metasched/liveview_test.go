package metasched

import (
	"context"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// liveBook is one live calendar's state at a point of the run.
type liveBook struct {
	gen uint64
	res []resource.Reservation
}

func recordLive(env *resource.Environment) map[resource.NodeID]liveBook {
	out := make(map[resource.NodeID]liveBook, env.NumNodes())
	for _, n := range env.Nodes() {
		out[n.ID] = liveBook{gen: n.Calendar().Gen(), res: n.Calendar().Reservations()}
	}
	return out
}

// watchCtx is a build context whose cancellation poll doubles as a probe:
// every build checks its context between critical works, on the goroutine
// that runs it, so check runs on the placer workers in mid-build.
type watchCtx struct {
	context.Context
	check func()
}

func (c watchCtx) Err() error {
	c.check()
	return c.Context.Err()
}

// TestPlacerRoundsPlanOnTheLiveBooks is the guard for planning on the live
// books (DESIGN.md §12). A loaded environment whose every book was just
// written — so none has a published window-query index and the builds race
// to publish it — takes one same-tick batch of twelve jobs at Placers 4,
// through the VO's public hooks only:
//
//   - the view the builds share maps every node to its live calendar itself;
//   - from the moment a build phase starts (BuildCtx is acquired for every
//     job of a round before the first build) until the first commit after it
//     (the first activate event), no live book moves: the placer workers see
//     the generations they started with at every context poll, the engine
//     goroutine finds generations and reservations unchanged at every later
//     BuildCtx call, and the first activation finds the books changed by
//     exactly that plan's windows;
//   - under -race, nothing writes a book while a worker reads it.
func TestPlacerRoundsPlanOnTheLiveBooks(t *testing.T) {
	const jobs = 12
	e := sim.New()
	wcfg := workload.Default(11)
	wcfg.DeadlineFactor *= 3 // room to plan around the background load
	gen := workload.New(wcfg)
	env := gen.Environment(3)
	for _, n := range env.Nodes() {
		for k := 0; k < 20; k++ {
			start := simtime.Time(k*17 + int(n.ID)%5)
			if err := n.Calendar().Reserve(simtime.Interval{Start: start, End: start + 6}, resource.External); err != nil {
				t.Fatal(err)
			}
		}
	}

	var vo *VO
	var mark map[resource.NodeID]liveBook // the books when the open build phase started
	open := false                         // a build phase started and nothing has committed since
	phases, firstCommits := 0, 0
	var polls atomic.Int64 // mid-build probes, made on the placer workers
	unchanged := func(when string) {
		now := recordLive(env)
		for id, was := range mark {
			if got := now[id]; got.gen != was.gen || !reflect.DeepEqual(got.res, was.res) {
				t.Errorf("%s: live book of node %d moved during a build phase (gen %d → %d)", when, id, was.gen, got.gen)
			}
		}
	}
	reg := telemetry.NewRegistry()
	cfg := Config{
		Seed:      11,
		Placers:   4,
		Telemetry: reg,
		BuildCtx: func(job string) context.Context {
			if open {
				unchanged("BuildCtx " + job)
			} else {
				mark, open = recordLive(env), true
				phases++
			}
			started := mark
			return watchCtx{Context: context.Background(), check: func() {
				polls.Add(1)
				for _, n := range env.Nodes() {
					if g := n.Calendar().Gen(); g != started[n.ID].gen {
						t.Errorf("job %s mid-build: node %d generation %d, was %d when the phase started", job, n.ID, g, started[n.ID].gen)
					}
				}
			}}
		},
		Tracer: TracerFunc(func(ev Event) {
			if ev.Kind != EventActivate || !open {
				return
			}
			// The first commit since the phase started: the books are the
			// marked ones plus this plan's windows, nothing else.
			open = false
			firstCommits++
			aj := vo.active[ev.Job]
			want := make(map[resource.NodeID]liveBook, len(mark))
			for id, was := range mark {
				want[id] = liveBook{gen: was.gen, res: append([]resource.Reservation(nil), was.res...)}
			}
			for task, p := range aj.current.Placements {
				b := want[p.Node]
				b.gen++
				b.res = append(b.res, resource.Reservation{Interval: p.Window,
					Owner: resource.Owner{Job: ev.Job, Task: aj.strat.Scheduled.Task(task).Name}})
				want[p.Node] = b
			}
			now := recordLive(env)
			for id, w := range want {
				sort.Slice(w.res, func(i, j int) bool { return w.res[i].Interval.Start < w.res[j].Interval.Start })
				if got := now[id]; got.gen != w.gen || !reflect.DeepEqual(got.res, w.res) {
					t.Errorf("first commit (%s): node %d holds more than the marked book plus the plan (gen %d, want %d)", ev.Job, id, got.gen, w.gen)
				}
			}
		}),
	}
	vo = NewVO(e, env, cfg)

	view := vo.liveBooks()
	if len(view) != env.NumNodes() {
		t.Fatalf("the view has %d entries for %d nodes", len(view), env.NumNodes())
	}
	for _, n := range env.Nodes() {
		if view[n.ID] != n.Calendar() {
			t.Errorf("the view's entry for node %d is not the live calendar", n.ID)
		}
	}

	for i := 0; i < jobs; i++ {
		if err := vo.SubmitPrio(gen.Job(i), strategy.AllTypes[i%len(strategy.AllTypes)], 0, i%3); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()

	if got := len(vo.Results()); got != jobs {
		t.Fatalf("%d of %d jobs went terminal", got, jobs)
	}
	commits := reg.Counter("grid_placer_commits_total", "").Value()
	conflicts := reg.Counter("grid_placer_conflicts_total", "").Value()
	t.Logf("%d build phases, %d mid-build probes, %d first commits checked; optimistic commits %d, conflicts %d",
		phases, polls.Load(), firstCommits, commits, conflicts)
	if phases == 0 || polls.Load() == 0 || firstCommits == 0 || commits == 0 {
		t.Errorf("the guard looked at nothing, or the batch never went through an optimistic round")
	}
}
