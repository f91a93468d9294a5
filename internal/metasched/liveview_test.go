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
		BuildCtx: func(job string) (context.Context, context.CancelFunc) {
			if planned == nil {
				if !open {
					mark, open = recordLive(env), true
				}
				members[job] = vo.active[job].manager.domain
				batchBuilds++
			} else {
				laterBuilds++
			}
			return context.Background(), func() {}
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
			for _, p := range aj.current.Placements {
				if dom := env.Node(p.Node).Domain; dom != ev.Domain || dom != members[ev.Job] {
					t.Errorf("%s, assigned to %s, booked node %d of domain %s", ev.Job, members[ev.Job], p.Node, dom)
				}
				b := want[p.Node]
				b.gen++
				b.res = append(b.res, resource.Reservation{Interval: p.Window,
					Owner: resource.Owner{Job: ev.Job, Task: aj.strat.Scheduled.Task(p.Task).Name}})
				want[p.Node] = b
			}
		}),
	}
	vo = NewVO(e, env, cfg)

	view := vo.books
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

// TestLiveBooksAllocs pins the VO-owned view: NewVO fills one map with every
// node's live calendar once, and every plan reads that map, so taking the
// view allocates nothing. A node keeps its book for life, so after a loaded
// run that reserved, released and pruned the books the view still maps every
// node to its live calendar.
func TestLiveBooksAllocs(t *testing.T) {
	e := sim.New()
	gen := workload.New(workload.Default(5))
	env := gen.Environment(3)
	vo := NewVO(e, env, Config{Seed: 5, ExternalMeanGap: 9, ExternalLead: 3, ExternalDurLo: 4, ExternalDurHi: 12, ExternalUntil: 400})
	check := func(when string) {
		t.Helper()
		if len(vo.books) != env.NumNodes() {
			t.Fatalf("%s: the view has %d entries for %d nodes", when, len(vo.books), env.NumNodes())
		}
		for _, n := range env.Nodes() {
			if vo.books[n.ID] != n.Calendar() {
				t.Fatalf("%s: the view's entry for node %d is not the live calendar", when, n.ID)
			}
		}
	}
	check("first view")
	for _, a := range gen.Flow(0, 20, 0) {
		if err := vo.Submit(a.Job, strategy.S1, a.At); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if got := len(vo.Results()); got != 20 {
		t.Fatalf("%d of 20 jobs went terminal", got)
	}
	check("after a loaded run")
}
