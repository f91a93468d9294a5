package baseline

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
)

func env4() *resource.Environment {
	return resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "n1", 1.0, "d"),
		resource.NewNode(1, "n2", 0.5, "d"),
		resource.NewNode(2, "n3", 0.33, "d"),
		resource.NewNode(3, "n4", 0.25, "d"),
	})
}

func lineJob(deadline simtime.Time) *dag.Job {
	b := dag.NewBuilder("line").Deadline(deadline)
	b.Task("A", 2, 10)
	b.Task("B", 3, 15)
	b.Task("C", 2, 10)
	b.Edge("e1", "A", "B", 1, 5)
	b.Edge("e2", "B", "C", 1, 5)
	return b.MustBuild()
}

func forkJob(deadline simtime.Time) *dag.Job {
	b := dag.NewBuilder("fork").Deadline(deadline)
	b.Task("S", 2, 10)
	b.Task("A", 6, 30)
	b.Task("B", 2, 10)
	b.Task("T", 2, 10)
	b.Edge("dA", "S", "A", 1, 5)
	b.Edge("dB", "S", "B", 1, 5)
	b.Edge("oA", "A", "T", 1, 5)
	b.Edge("oB", "B", "T", 1, 5)
	return b.MustBuild()
}

func checkValid(t *testing.T, job *dag.Job, s *criticalworks.Schedule) {
	t.Helper()
	if len(s.Placements) != job.NumTasks() {
		t.Fatalf("placed %d of %d", len(s.Placements), job.NumTasks())
	}
	for id, p := range s.Placements {
		if p.Task != dag.TaskID(id) || p.Window.Empty() {
			t.Fatalf("Placements[%d] = %+v, want task %d's placement", id, p, id)
		}
	}
	for _, e := range job.Edges() {
		if s.Placements[e.To].Window.Start < s.Placements[e.From].Window.End+e.BaseTime {
			t.Errorf("edge %s violates precedence", e.Name)
		}
	}
}

func TestAllHeuristicsScheduleLinearJob(t *testing.T) {
	for _, h := range Heuristics {
		env := env4()
		s, err := Build(env, criticalworks.EmptyCalendars(env), lineJob(60), h)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		checkValid(t, s.Job, s)
		if !s.MeetsDeadline() {
			t.Errorf("%v misses a loose deadline: finish %d", h, s.Finish)
		}
	}
}

func TestHeuristicNames(t *testing.T) {
	want := []string{"min-min", "max-min", "sufferage", "olb"}
	for i, h := range Heuristics {
		if h.String() != want[i] {
			t.Errorf("Heuristics[%d] = %s, want %s", i, h, want[i])
		}
	}
}

func TestMinMinPicksShortTaskFirst(t *testing.T) {
	// Fork with one long (A) and one short (B) branch and a single fast
	// node: min-min runs B before A on the contended fast node; max-min
	// runs A first.
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "only", 1.0, "d"),
	})
	job := forkJob(100)
	minmin, err := Build(env, criticalworks.EmptyCalendars(env), job, MinMin)
	if err != nil {
		t.Fatal(err)
	}
	maxmin, err := Build(env, criticalworks.EmptyCalendars(env), job, MaxMin)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := job.TaskByName("A")
	bTask, _ := job.TaskByName("B")
	if !(minmin.Placements[bTask.ID].Window.Start < minmin.Placements[a.ID].Window.Start) {
		t.Errorf("min-min ran long task first: A %v, B %v",
			minmin.Placements[a.ID].Window, minmin.Placements[bTask.ID].Window)
	}
	if !(maxmin.Placements[a.ID].Window.Start < maxmin.Placements[bTask.ID].Window.Start) {
		t.Errorf("max-min ran short task first: A %v, B %v",
			maxmin.Placements[a.ID].Window, maxmin.Placements[bTask.ID].Window)
	}
}

func TestInfeasibleDeadline(t *testing.T) {
	env := env4()
	for _, h := range Heuristics {
		_, err := Build(env, criticalworks.EmptyCalendars(env), lineJob(3), h)
		var inf *InfeasibleError
		if !errors.As(err, &inf) {
			t.Errorf("%v: err = %v, want InfeasibleError", h, err)
		}
	}
}

func TestNoCandidates(t *testing.T) {
	env := resource.NewEnvironment(nil)
	_, err := Build(env, criticalworks.EmptyCalendars(env), lineJob(50), MinMin)
	if !errors.Is(err, criticalworks.ErrNoCandidates) {
		t.Fatalf("err = %v", err)
	}
}

func TestRespectsExistingReservations(t *testing.T) {
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "only", 1.0, "d"),
	})
	cals := criticalworks.EmptyCalendars(env)
	if err := cals[0].Reserve(simtime.Interval{Start: 0, End: 10}, resource.External); err != nil {
		t.Fatal(err)
	}
	s, err := Build(env, cals, lineJob(60), MinMin)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start < 10 {
		t.Errorf("schedule starts %d inside external reservation", s.Start)
	}
}

func randomJob(r *rng.Source) *dag.Job {
	n := r.IntBetween(1, 8)
	b := dag.NewBuilder("rand")
	names := make([]string, n)
	var span simtime.Time
	for i := range names {
		names[i] = string(rune('A' + i))
		bt := simtime.Time(r.IntBetween(1, 6))
		span += bt * 4
		b.Task(names[i], bt, int64(r.IntBetween(0, 30)))
	}
	for to := 1; to < n; to++ {
		for from := 0; from < to; from++ {
			if r.Bool(0.3) {
				tt := simtime.Time(r.IntBetween(0, 3))
				span += tt
				b.Edge(names[from]+names[to], names[from], names[to], tt, 1)
			}
		}
	}
	b.Deadline(span + simtime.Time(r.IntBetween(0, 20)))
	return b.MustBuild()
}

func TestQuickBaselineInvariants(t *testing.T) {
	// Whenever a heuristic succeeds: every task placed, precedence holds
	// with every transfer at its edge's base time (remote access), deadline
	// met, no double-booking in the view.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		env := env4()
		job := randomJob(r)
		h := Heuristics[r.Intn(len(Heuristics))]
		cals := criticalworks.EmptyCalendars(env)
		s, err := Build(env, cals, job, h)
		if err != nil {
			var inf *InfeasibleError
			return errors.As(err, &inf)
		}
		if len(s.Placements) != job.NumTasks() || s.Finish > job.Deadline {
			return false
		}
		for _, e := range job.Edges() {
			if s.Placements[e.To].Window.Start < s.Placements[e.From].Window.End+e.BaseTime {
				return false
			}
		}
		for _, p := range s.Placements {
			found := false
			for _, res := range cals[p.Node].Reservations() {
				if res.Interval == p.Window {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeterministic(t *testing.T) {
	f := func(seed uint64, hIdx uint8) bool {
		h := Heuristics[int(hIdx)%len(Heuristics)]
		mk := func() (*criticalworks.Schedule, error) {
			r := rng.New(seed)
			env := env4()
			return Build(env, criticalworks.EmptyCalendars(env), randomJob(r), h)
		}
		a, errA := mk()
		b, errB := mk()
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		if a.Finish != b.Finish || a.Cost != b.Cost {
			return false
		}
		for id, pa := range a.Placements {
			if pa != b.Placements[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
