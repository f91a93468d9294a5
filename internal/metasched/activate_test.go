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
	"repro/internal/workload"
)

// TestActivateIsAllOrNothing pins the one way onto the books
// (JobManager.reserve, through activate = reserve + launch; DESIGN.md §12).
// On a loaded VO a distribution is built on the live books; then, for each
// of its windows in turn, one tick of that window is made busy behind the
// plan's back. activate must return
// false and leave everything as it found it — every live book's generation
// and reservations, aj.used, the engine's pending events, the trace —
// whichever window it was and wherever the map walk meets it. With the
// window freed again the same distribution is booked: true, and the books
// differ from before by exactly its placements.
func TestActivateIsAllOrNothing(t *testing.T) {
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
	var events []Event
	vo := NewVO(e, env, Config{Seed: 11, Tracer: TracerFunc(func(ev Event) { events = append(events, ev) })})

	job := gen.Job(0)
	m := vo.managers[0]
	st, err := m.gen.GenerateCtx(context.Background(), job, strategy.S1, vo.books, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := st.CheapestAdmissible()
	if d == nil || len(d.Placements) < 2 {
		t.Fatalf("the fixture needs an admissible plan of several windows, got %+v", d)
	}
	aj := &activeJob{result: &JobResult{Job: job, Type: strategy.S1}, manager: m, failedAt: -1}
	aj.install(st)

	for task, p := range d.Placements {
		blocker := simtime.Interval{Start: p.Window.End - 1, End: p.Window.End}
		cal := env.Node(p.Node).Calendar()
		if err := cal.Reserve(blocker, resource.External); err != nil {
			t.Fatalf("task %d: its window was not free after the build: %v", task, err)
		}
		before, pending, traced := recordLive(env), e.Pending(), len(events)
		if m.activate(aj, d) {
			t.Fatalf("task %d: activate booked a plan whose window %v on node %d is busy", task, p.Window, p.Node)
		}
		if now := recordLive(env); !reflect.DeepEqual(now, before) {
			t.Errorf("task %d: a refused plan moved the live books", task)
		}
		if aj.used != (strategy.Levels{}) || aj.current != nil || aj.everActivated {
			t.Errorf("task %d: a refused plan changed the job: used %v, current %v", task, aj.used, aj.current)
		}
		if e.Pending() != pending || len(events) != traced {
			t.Errorf("task %d: a refused plan scheduled %d events and traced %d", task, e.Pending()-pending, len(events)-traced)
		}
		if !cal.Release(blocker, resource.External) {
			t.Fatal("the blocker is gone")
		}
	}

	want, pending, traced := recordLive(env), e.Pending(), len(events)
	if !m.activate(aj, d) {
		t.Fatal("activate refused a plan whose every window is free")
	}
	for _, p := range d.Placements {
		b := want[p.Node]
		b.gen++
		b.res = append(b.res, resource.Reservation{Interval: p.Window,
			Owner: resource.Owner{Job: job.Name, Task: st.Scheduled.Task(p.Task).Name}})
		want[p.Node] = b
	}
	for _, w := range want {
		sort.Slice(w.res, func(i, j int) bool { return w.res[i].Interval.Start < w.res[j].Interval.Start })
	}
	if now := recordLive(env); !reflect.DeepEqual(now, want) {
		t.Errorf("the booked plan changed the books by something other than its placements")
	}
	var used strategy.Levels
	used[d.Level] = true
	if aj.used != used || aj.current != d {
		t.Errorf("after booking level %d: used %v, current %v", d.Level, aj.used, aj.current)
	}
	// A start and a finish event (no fault injection), one activate record.
	if e.Pending() != pending+2 || len(events) != traced+1 || events[len(events)-1].Kind != EventActivate {
		t.Errorf("booking scheduled %d events and traced %d", e.Pending()-pending, len(events)-traced)
	}
}
