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
// and a batch places its members on the live books themselves, one after
// another. A loaded three-domain environment whose every book was just
// written — so none has a published window-query index — takes one same-tick
// batch of twelve jobs at Placers 4, through the VO's public hooks only:
//
//   - the view the builds share maps every node to its live calendar itself;
//   - no plan books a node outside the domain its member was in when it was
//     placed, the domain it was assigned unless it was reallocated;
//   - every build of the tick, each member's and then the reallocated
//     members', starts on the books the batch began with plus exactly the
//     plans of the activate events traced before it. So a member's plan is
//     booked and launched before the next member is built.
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
	var want map[resource.NodeID]liveBook // the batch's starting books plus the plans activated since
	members := map[string]string{}        // batch member → the domain it was assigned
	moved := map[string]bool{}            // members reallocated since
	memberBuilds, laterBuilds, builds, activations, memberActivations := 0, 0, 0, 0, 0
	reg := telemetry.NewRegistry()
	cfg := Config{
		Seed:      11,
		Placers:   4,
		Telemetry: reg,
		BuildCtx: func(job string) (context.Context, context.CancelFunc) {
			if e.Now() != 0 {
				return context.Background(), func() {}
			}
			if want == nil {
				want = recordLive(env)
			}
			if _, ok := members[job]; ok {
				laterBuilds++
			} else {
				members[job] = vo.active[job].manager.domain
				memberBuilds++
			}
			builds++
			for id, got := range recordLive(env) {
				w := want[id]
				sort.Slice(w.res, func(i, j int) bool { return w.res[i].Interval.Start < w.res[j].Interval.Start })
				if got.gen != w.gen || !reflect.DeepEqual(got.res, w.res) {
					t.Errorf("build %d (%s): node %d is not the batch's starting book plus the activated plans (gen %d, want %d)", builds, job, id, got.gen, w.gen)
				}
			}
			return context.Background(), func() {}
		},
		Tracer: TracerFunc(func(ev Event) {
			if ev.At != 0 {
				return
			}
			switch ev.Kind {
			case EventReallocate:
				moved[ev.Job] = true
			case EventActivate:
				activations++
				if !moved[ev.Job] {
					memberActivations++
				}
				aj := vo.active[ev.Job]
				for _, p := range aj.current.Placements {
					if dom := env.Node(p.Node).Domain; dom != ev.Domain || (!moved[ev.Job] && dom != members[ev.Job]) {
						t.Errorf("%s, assigned to %s, booked node %d of domain %s", ev.Job, members[ev.Job], p.Node, dom)
					}
					b := want[p.Node]
					b.gen++
					b.res = append(b.res, resource.Reservation{Interval: p.Window,
						Owner: resource.Owner{Job: ev.Job, Task: aj.strat.Scheduled.Task(p.Task).Name}})
					want[p.Node] = b
				}
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
	e.Run()

	if got := len(vo.Results()); got != jobs {
		t.Fatalf("%d of %d jobs went terminal", got, jobs)
	}
	domains := map[string]bool{}
	for _, d := range members {
		domains[d] = true
	}
	commits := reg.Counter("grid_placer_commits_total", "").Value()
	t.Logf("%d member builds over %d domains, %d reallocated builds, %d activations (%d of members in their first domain); batch commits %d",
		memberBuilds, len(domains), laterBuilds, activations, memberActivations, commits)
	if memberBuilds != jobs || len(domains) != 3 || laterBuilds == 0 || memberActivations < 2 || uint64(memberActivations) != commits {
		t.Errorf("the guard looked at nothing: the batch did not span three domains, place two members, or reallocate one")
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
