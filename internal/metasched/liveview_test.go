package metasched

import (
	"context"
	"reflect"
	"sort"
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

// TestPlacerPipelinesPlanOnTheLiveBooks is the guard for the writer rule of
// DESIGN.md §12: the engine goroutine is the books' only reader and writer,
// and a batch plans on the live books themselves. A loaded three-domain
// environment whose every book was just written — so none has a published
// window-query index — takes one same-tick batch of twelve jobs at Placers
// 4, through the VO's public hooks only:
//
//   - the view the builds share maps every node to its live calendar itself;
//   - no plan books a node outside the domain its member was assigned;
//   - after the planning walk (the first trace event since the batch's first
//     build context was handed out) the books are the ones the batch began
//     with plus exactly the plans of the activate events the launch walk
//     then emits.
func TestPlacerPipelinesPlanOnTheLiveBooks(t *testing.T) {
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
	var mark map[resource.NodeID]liveBook    // the books when the batch began
	var planned map[resource.NodeID]liveBook // the books at the first event after the planning walk
	want := map[resource.NodeID]liveBook{}   // mark plus the plans activated since
	members := map[string]string{}           // batch member → the domain it was assigned
	open, walking := false, false            // planning walk running; launch walk running
	batchBuilds, laterBuilds, activations := 0, 0, 0

	// closeWalk compares the books after planning with the plans launched since.
	closeWalk := func() {
		if !walking {
			return
		}
		walking = false
		for id, w := range want {
			sort.Slice(w.res, func(i, j int) bool { return w.res[i].Interval.Start < w.res[j].Interval.Start })
			if got := planned[id]; got.gen != w.gen || !reflect.DeepEqual(got.res, w.res) {
				t.Errorf("after planning node %d is not the batch's starting book plus the activated plans (gen %d, want %d)", id, got.gen, w.gen)
			}
		}
	}
	reg := telemetry.NewRegistry()
	cfg := Config{
		Seed:      11,
		Placers:   4,
		Telemetry: reg,
		BuildCtx: func(job string) context.Context {
			if planned == nil {
				if !open {
					mark, open = recordLive(env), true
				}
				members[job] = vo.active[job].manager.domain
				batchBuilds++
			} else {
				laterBuilds++
			}
			return context.Background()
		},
		Tracer: TracerFunc(func(ev Event) {
			if open && ev.Kind != EventArrive {
				// Every member is planned: this is the launch walk.
				open, walking = false, true
				planned = recordLive(env)
				for id, was := range mark {
					want[id] = liveBook{gen: was.gen, res: append([]resource.Reservation(nil), was.res...)}
				}
			}
			if !walking {
				return
			}
			if ev.Kind != EventActivate {
				closeWalk()
				return
			}
			activations++
			aj := vo.active[ev.Job]
			for task, p := range aj.current.Placements {
				if dom := env.Node(p.Node).Domain; dom != ev.Domain || dom != members[ev.Job] {
					t.Errorf("%s, assigned to %s, booked node %d of domain %s", ev.Job, members[ev.Job], p.Node, dom)
				}
				b := want[p.Node]
				b.gen++
				b.res = append(b.res, resource.Reservation{Interval: p.Window,
					Owner: resource.Owner{Job: ev.Job, Task: aj.strat.Scheduled.Task(task).Name}})
				want[p.Node] = b
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
	e.RunUntil(1)
	closeWalk()
	e.Run()

	if got := len(vo.Results()); got != jobs {
		t.Fatalf("%d of %d jobs went terminal", got, jobs)
	}
	domains := map[string]bool{}
	for _, d := range members {
		domains[d] = true
	}
	commits := reg.Counter("grid_placer_commits_total", "").Value()
	t.Logf("%d batch builds over %d domains, %d later builds, %d activations checked against the planned books; batch commits %d",
		batchBuilds, len(domains), laterBuilds, activations, commits)
	if batchBuilds != jobs || len(domains) != 3 || activations == 0 || uint64(activations) != commits {
		t.Errorf("the guard looked at nothing, or the batch did not span three domains")
	}
}

// TestLiveBooksAllocs pins the VO-owned view: liveBooks refills one map the
// VO keeps, so after the first call taking the view allocates nothing — and
// because it is refilled from the nodes every time, not cached, it follows
// Environment.Reset, which replaces every book.
func TestLiveBooksAllocs(t *testing.T) {
	env := workload.New(workload.Default(5)).Environment(3)
	vo := NewVO(sim.New(), env, Config{Seed: 5})
	check := func(when string) {
		t.Helper()
		view := vo.liveBooks()
		if len(view) != env.NumNodes() {
			t.Fatalf("%s: the view has %d entries for %d nodes", when, len(view), env.NumNodes())
		}
		for _, n := range env.Nodes() {
			if view[n.ID] != n.Calendar() {
				t.Fatalf("%s: the view's entry for node %d is not the live calendar", when, n.ID)
			}
		}
	}
	check("first view")
	if allocs := testing.AllocsPerRun(100, func() { vo.liveBooks() }); allocs != 0 {
		t.Errorf("liveBooks allocates %.1f objects per call after the first, want 0", allocs)
	}
	before := env.Node(0).Calendar()
	env.Reset()
	if env.Node(0).Calendar() == before {
		t.Fatal("Environment.Reset kept the old book; the test no longer shows that the view follows it")
	}
	check("after Environment.Reset")
}
