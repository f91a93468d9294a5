package metasched

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// TestReserveIsAllOrNothing pins the one way onto the books
// (JobManager.reserve; DESIGN.md §12). On a loaded VO a distribution is
// built on the live books; then, for each of its windows in turn, one tick
// of that window is taken behind the VO's back. reserve must panic, naming
// the job, the level and the window, and leave everything as it found it —
// every live book's generation and reservations, aj, the engine's pending
// events, the trace — whichever window it was. With the window freed again
// the same distribution is booked, and the books differ from before by
// exactly its placements; reserve schedules and traces nothing, and launch,
// which touches no book, schedules the start and finish and traces one
// activation.
func TestReserveIsAllOrNothing(t *testing.T) {
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
	reserve := func() (refusal any) {
		defer func() { refusal = recover() }()
		m.reserve(aj, d)
		return nil
	}

	for task, p := range d.Placements {
		blocker := simtime.Interval{Start: p.Window.End - 1, End: p.Window.End}
		cal := env.Node(p.Node).Calendar()
		if err := cal.Reserve(blocker, resource.External); err != nil {
			t.Fatalf("task %d: its window was not free after the build: %v", task, err)
		}
		before, pending, traced := recordLive(env), e.Pending(), len(events)
		ajWas, resultWas := *aj, *aj.result
		refusal := reserve()
		if refusal == nil {
			t.Fatalf("task %d: reserve booked a plan whose window %v on node %d is busy", task, p.Window, p.Node)
		}
		msg := fmt.Sprint(refusal)
		for _, want := range []string{aj.result.Job.Name, fmt.Sprintf("level %d", d.Level), fmt.Sprint(p.Window), fmt.Sprintf("node %d", p.Node)} {
			if !strings.Contains(msg, want) {
				t.Errorf("task %d: the refusal %q does not name %q", task, msg, want)
			}
		}
		if now := recordLive(env); !reflect.DeepEqual(now, before) {
			t.Errorf("task %d: a refused plan moved the live books", task)
		}
		if !reflect.DeepEqual(*aj, ajWas) || !reflect.DeepEqual(*aj.result, resultWas) {
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
	if refusal := reserve(); refusal != nil {
		t.Fatalf("reserve refused a plan whose every window is free: %v", refusal)
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
	if e.Pending() != pending || len(events) != traced {
		t.Errorf("reserve scheduled %d events and traced %d", e.Pending()-pending, len(events)-traced)
	}
	m.launch(aj, d)
	if now := recordLive(env); !reflect.DeepEqual(now, want) {
		t.Errorf("launch moved the books")
	}
	var used strategy.Levels
	used[d.Level] = true
	if aj.used != used || aj.current != d {
		t.Errorf("after booking level %d: used %v, current %v", d.Level, aj.used, aj.current)
	}
	// A start and a finish event (no fault injection), one activate record.
	if e.Pending() != pending+2 || len(events) != traced+1 || events[len(events)-1].Kind != EventActivate {
		t.Errorf("launch scheduled %d events and traced %d", e.Pending()-pending, len(events)-traced)
	}
}
