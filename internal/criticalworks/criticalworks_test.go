package criticalworks

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/economy"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// fig2Job is the paper's Fig. 2(a) example (see dag tests for the chain
// length derivation).
func fig2Job(deadline simtime.Time) *dag.Job {
	b := dag.NewBuilder("fig2").Deadline(deadline)
	b.Task("P1", 2, 20)
	b.Task("P2", 3, 30)
	b.Task("P3", 1, 10)
	b.Task("P4", 2, 20)
	b.Task("P5", 1, 10)
	b.Task("P6", 2, 20)
	b.Edge("D1", "P1", "P2", 1, 10)
	b.Edge("D2", "P1", "P3", 1, 10)
	b.Edge("D3", "P2", "P4", 1, 10)
	b.Edge("D4", "P2", "P5", 1, 10)
	b.Edge("D5", "P3", "P4", 1, 10)
	b.Edge("D6", "P3", "P5", 1, 10)
	b.Edge("D7", "P4", "P6", 1, 10)
	b.Edge("D8", "P5", "P6", 1, 10)
	return b.MustBuild()
}

// paperEnv is the Fig. 2 node set: four nodes of types 1..4 (performance
// 1, 0.5, 0.33, 0.25).
func paperEnv() *resource.Environment {
	return resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "n1", 1.0, "d"),
		resource.NewNode(1, "n2", 0.5, "d"),
		resource.NewNode(2, "n3", 0.33, "d"),
		resource.NewNode(3, "n4", 0.25, "d"),
	})
}

// committedCatalog is the replica state a finished build of s ended in, as a
// string-keyed catalog: every edge's data placement committed.
func committedCatalog(s *Schedule, m data.Model) *data.Catalog {
	cat := data.NewCatalog(m.Policy, m.Storage)
	for _, e := range s.Job.Edges() {
		cat.Commit(s.Job.Name, s.Job.Task(e.From).Name, s.Placements[e.From].Node, s.Placements[e.To].Node)
	}
	return cat
}

// placedTasks counts the tasks s placed: the entries of its table by TaskID
// whose window is not empty.
func placedTasks(s *Schedule) int {
	n := 0
	for _, p := range s.Placements {
		if !p.Window.Empty() {
			n++
		}
	}
	return n
}

// checkValid asserts the schedule's structural invariants: everything
// placed, one entry per task at its own TaskID, precedence + transfer times
// respected, deadline semantics consistent, windows on one node disjoint.
func checkValid(t *testing.T, env *resource.Environment, s *Schedule, m data.Model) {
	t.Helper()
	job := s.Job
	if len(s.Placements) != job.NumTasks() || placedTasks(s) != job.NumTasks() {
		t.Fatalf("placed %d of %d tasks in a table of %d", placedTasks(s), job.NumTasks(), len(s.Placements))
	}
	for id, p := range s.Placements {
		if p.Task != dag.TaskID(id) {
			t.Fatalf("Placements[%d] holds task %d", id, p.Task)
		}
	}
	cat := committedCatalog(s, m)
	for _, e := range job.Edges() {
		from, to := s.Placements[e.From], s.Placements[e.To]
		tt := cat.TransferTime(job.Name, job.Task(e.From).Name, e.BaseTime, from.Node, to.Node)
		if to.Window.Start < from.Window.End+tt {
			t.Errorf("edge %s: to starts %d, from ends %d + transfer %d", e.Name, to.Window.Start, from.Window.End, tt)
		}
	}
	byNode := map[resource.NodeID][]simtime.Interval{}
	for _, p := range s.Placements {
		byNode[p.Node] = append(byNode[p.Node], p.Window)
	}
	for n, ivs := range byNode {
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].Overlaps(ivs[j]) {
					t.Errorf("node %d has overlapping windows %v %v", n, ivs[i], ivs[j])
				}
			}
		}
	}
}

func TestSingleTaskPicksCheapestFeasible(t *testing.T) {
	b := dag.NewBuilder("one").Deadline(100)
	b.Task("T", 2, 20)
	job := b.MustBuild()
	env := paperEnv()

	s, err := Build(env, EmptyCalendars(env), job, Options{Objective: MinCost})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Placements[0]
	// Under MinCost with a loose deadline, the cheapest node wins: slowest
	// (type 4, dur 8, charge ceil(20/8)=3) beats fast (dur 2, charge 10).
	if p.Node != 3 {
		t.Errorf("placed on node %d, want the type-4 node 3", p.Node)
	}
	if s.Cost != 3 {
		t.Errorf("Cost = %d, want 3", s.Cost)
	}
	if !s.MeetsDeadline() {
		t.Error("missed a loose deadline")
	}
}

func TestSingleTaskTightDeadlineForcesFastNode(t *testing.T) {
	b := dag.NewBuilder("one").Deadline(2)
	b.Task("T", 2, 20)
	job := b.MustBuild()
	env := paperEnv()

	s, err := Build(env, EmptyCalendars(env), job, Options{Objective: MinCost})
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Placements[0]; p.Node != 0 {
		t.Errorf("placed on node %d, want fast node 0", p.Node)
	}
	if s.Cost != 10 {
		t.Errorf("Cost = %d, want 10 (paying for speed)", s.Cost)
	}
}

func TestInfeasibleDeadline(t *testing.T) {
	b := dag.NewBuilder("one").Deadline(1)
	b.Task("T", 2, 20) // even the fastest node needs 2 ticks
	job := b.MustBuild()
	env := paperEnv()

	_, err := Build(env, EmptyCalendars(env), job, Options{})
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want InfeasibleError", err)
	}
}

// TestInfeasibleSaysWhy: the error tells how a build knew — refused before
// any attempt (Hopeless: nothing probed), stopped after margin 1 by a proof
// about the first critical work (FirstWork: the DP cut, or the calendar
// bound where the cut does not apply), or left to the ladder — with the same
// text every way, no schedule, and counts that hold only the probes spent
// and the collisions of the margin-1 attempt, which the reference's partial
// schedule shows. Every node is
// booked for ticks 0–10. Fig. 2's critical path P1→P2→P4→P6 is 12 ticks on
// the fastest node, transfers included, so P1 must end by deadline − 10.
func TestInfeasibleSaysWhy(t *testing.T) {
	env := paperEnv()
	booked := EmptyCalendars(env)
	for _, c := range booked {
		if err := c.Reserve(simtime.Interval{Start: 0, End: 10}, resource.External); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name                string
		deadline            simtime.Time
		opt                 Options
		hopeless, firstWork bool
	}{
		// 12 ticks overrun 11 even on an empty grid.
		{"bound", 11, Options{}, true, true},
		// Fits an empty grid, but P1 would have to end by 10 and every node
		// is busy until then. MinFinish's DP finds no placement at margin 1,
		// which proves it for every margin.
		{"dp cut", 20, Options{}, false, true},
		// MinCost's DP failing proves nothing; P1 having no free gap inside
		// [0, 10) on any node does.
		{"calendar bound, MinCost", 20, Options{Objective: MinCost}, false, true},
		{"calendar bound, delay", 20, Options{Mode: ResolveDelay}, false, true},
	} {
		s, err := Build(env, booked, fig2Job(tc.deadline), tc.opt)
		var inf *InfeasibleError
		if !errors.As(err, &inf) {
			t.Fatalf("%s: err = %v, want InfeasibleError", tc.name, err)
		}
		if inf.Hopeless != tc.hopeless || inf.FirstWork != tc.firstWork {
			t.Errorf("%s: Hopeless = %v, FirstWork = %v; want %v, %v", tc.name, inf.Hopeless, inf.FirstWork, tc.hopeless, tc.firstWork)
		}
		if want := `criticalworks: job "fig2": no feasible placement for task "P1"`; err.Error() != want {
			t.Errorf("%s: error text %q, want %q", tc.name, err, want)
		}
		if s != nil || inf.Collisions != 0 || (inf.Evaluations == 0) != tc.hopeless {
			t.Errorf("%s: schedule %+v, error %+v", tc.name, s, inf)
		}
		// Each proof is that the first critical work has no placement: the
		// full ladder places and collides nothing, and the proof spares the
		// attempts the ladder runs after it.
		want, _, _, _ := refBuild(env, booked.Clone(), fig2Job(tc.deadline), tc.opt)
		if want.Placements != nil || len(want.Collisions) != 0 {
			t.Errorf("%s: the reference ladder's margin-1 attempt placed %d tasks and recorded %d collisions",
				tc.name, placedTasks(want), len(want.Collisions))
		}
		if inf.Evaluations >= want.Evaluations {
			t.Errorf("%s: %d evaluations, the full ladder %d", tc.name, inf.Evaluations, want.Evaluations)
		}
	}

	// One node: the first critical work fits, the second cannot at any
	// margin. No proof is about the first work; the ladder says no.
	env1, cals1, job1 := layeredFixture(5, 2, 1, 60)
	s, err := Build(env1, cals1, job1, Options{})
	want, _, _, _ := refBuild(env1, cals1.Clone(), job1, Options{})
	var inf *InfeasibleError
	if !errors.As(err, &inf) || inf.Hopeless || inf.FirstWork || s != nil || placedTasks(want) == 0 || len(want.Placements) != job1.NumTasks() {
		t.Errorf("ladder: err = %v (%+v), schedule %+v, reference partial with %d placements in a table of %d; want a plain InfeasibleError after a chain was placed",
			err, inf, s, placedTasks(want), len(want.Placements))
	}
	if inf != nil {
		if cerr := sameCounts(inf, want); cerr != nil || inf.Collisions == 0 {
			t.Errorf("ladder: %v (%d collisions counted); want the reference's margin-1 collisions, at least one", cerr, inf.Collisions)
		}
	}
}

// TestCancelledContextWinsOverTheBound: a build whose context is already
// done reports the cancellation, also when the bound would have refused it
// — a timed-out build must not be mistaken for an infeasible level.
func TestCancelledContextWinsOverTheBound(t *testing.T) {
	env := paperEnv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := Build(env, EmptyCalendars(env), fig2Job(11), Options{Ctx: ctx})
	var inf *InfeasibleError
	if s != nil || !errors.Is(err, context.Canceled) || errors.As(err, &inf) {
		t.Fatalf("Build = %v, %v; want no schedule and a cancellation", s, err)
	}
}

func TestDeadlineBeforeRelease(t *testing.T) {
	b := dag.NewBuilder("one").Deadline(5)
	b.Task("T", 1, 1)
	job := b.MustBuild()
	env := paperEnv()
	_, err := Build(env, EmptyCalendars(env), job, Options{Release: 10})
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want InfeasibleError", err)
	}
}

func TestNoCandidates(t *testing.T) {
	b := dag.NewBuilder("one").Deadline(50)
	b.Task("T", 1, 1)
	job := b.MustBuild()
	env := paperEnv()
	_, err := Build(env, EmptyCalendars(env), job, Options{Candidates: []resource.NodeID{}})
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

func TestFig2FullBuild(t *testing.T) {
	job := fig2Job(20)
	env := paperEnv()
	s, err := Build(env, EmptyCalendars(env), job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, env, s, data.Model{})
	if !s.MeetsDeadline() {
		t.Errorf("fig2 misses deadline: finish %d > 20", s.Finish)
	}
	if s.Cost <= 0 {
		t.Errorf("cost not computed: CF=%d", s.Cost)
	}
}

func TestFig2TightDeadlineStillFeasible(t *testing.T) {
	// The critical path is 12 on type-1 nodes (transfers included); under
	// the MinFinish objective the method finds a 12-tick schedule, so a
	// deadline of 14 is feasible despite the branch contention.
	job := fig2Job(14)
	env := paperEnv()
	s, err := Build(env, EmptyCalendars(env), job, Options{})
	if err != nil {
		t.Fatalf("deadline 14 should be feasible: %v", err)
	}
	checkValid(t, env, s, data.Model{})
	if s.Finish > 14 {
		t.Errorf("finish %d > deadline 14", s.Finish)
	}
}

func TestFig2MinCostHeuristicMayFail(t *testing.T) {
	// The MinCost objective is a heuristic: with a tight deadline its
	// greedy first chain can strand later critical works, which surfaces
	// as a clean InfeasibleError rather than a broken schedule. (The
	// paper's own admissibility rates — 33–38% — reflect exactly such
	// misses.)
	job := fig2Job(14)
	env := paperEnv()
	_, err := Build(env, EmptyCalendars(env), job, Options{Objective: MinCost})
	if err != nil {
		var inf *InfeasibleError
		if !errors.As(err, &inf) {
			t.Fatalf("unexpected error type: %v", err)
		}
	}
}

func TestCollisionDetectedOnContendedNode(t *testing.T) {
	// Fork: S -> A, S -> B with identical estimates, a single candidate
	// node. The second critical work's ideal slot overlaps the first's
	// reservation: exactly one collision, held by the other branch's task of
	// the same build.
	b := dag.NewBuilder("fork").Deadline(40)
	b.Task("S", 2, 8)
	b.Task("A", 4, 16)
	b.Task("B", 4, 16)
	b.Edge("dA", "S", "A", 1, 1)
	b.Edge("dB", "S", "B", 1, 1)
	job := b.MustBuild()
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "only", 1.0, "d"),
	})
	s, err := Build(env, EmptyCalendars(env), job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Collisions) != 1 {
		t.Fatalf("collisions = %d, want 1 (%v)", len(s.Collisions), s.Collisions)
	}
	c := s.Collisions[0]
	if c.Node != 0 {
		t.Errorf("collision on node %d", c.Node)
	}
	A, B := dag.TaskID(1), dag.TaskID(2)
	if !(c.Task == A && c.Holder == B || c.Task == B && c.Holder == A) {
		t.Errorf("collision of task %d held by %d, want one branch task (A=%d, B=%d) held by the other", c.Task, c.Holder, A, B)
	}
}

func TestCollisionAgainstExternalReservation(t *testing.T) {
	b := dag.NewBuilder("one").Deadline(50)
	b.Task("T", 4, 4)
	job := b.MustBuild()
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "only", 1.0, "d"),
	})
	cals := EmptyCalendars(env)
	// Background load occupies the ideal window [0,4).
	if err := cals[0].Reserve(simtime.Interval{Start: 0, End: 10}, resource.External); err != nil {
		t.Fatal(err)
	}
	s, err := Build(env, cals, job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Collisions) != 1 || s.Collisions[0].Holder != NoHolder {
		t.Fatalf("collisions = %+v, want one held by the view", s.Collisions)
	}
	if res, busy := cals[0].ConflictWith(s.Collisions[0].Window); !busy || res.Owner != resource.External {
		t.Fatalf("the view holds %+v at the collision's window %v, want the external reservation", res, s.Collisions[0].Window)
	}
	if s.Placements[0].Window.Start < 10 {
		t.Errorf("task starts %d inside external reservation", s.Placements[0].Window.Start)
	}
}

// TestCollisionHoldsNoPointers: a Collision is integers alone — the task,
// the node, the window and the holder's TaskID, 40 bytes — so a schedule's
// collisions are a block the garbage collector never scans. A Collision
// whose Holder was a resource.Owner held two strings and took 64 bytes.
func TestCollisionHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Collision{})
	var fields []string
	for i := range typ.NumField() {
		f := typ.Field(i)
		fields = append(fields, f.Name+" "+f.Type.String())
		if p := pointerIn(f.Type); p != "" {
			t.Errorf("Collision.%s holds a pointer in %s", f.Name, p)
		}
	}
	if want := []string{"Task dag.TaskID", "Node resource.NodeID", "Window simtime.Interval", "Holder dag.TaskID"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("Collision's fields are %v, want %v", fields, want)
	}
	if typ.Size() != 40 {
		t.Errorf("a Collision takes %d bytes, want 40", typ.Size())
	}
}

// TestReserveRefusesWhatTheBookRefuses: the overlay's reserve refuses a
// window that overlaps the view's book or one of the attempt's own
// placements with the *ErrConflict that Calendar.Reserve returns on the
// merged book, the earlier-starting overlap named as the existing
// reservation: the view's own, or the placement under the owner a real
// reservation would carry.
func TestReserveRefusesWhatTheBookRefuses(t *testing.T) {
	b := dag.NewBuilder("two").Deadline(100)
	b.Task("P", 4, 4)
	b.Task("Q", 4, 4)
	job := b.MustBuild()
	env := resource.NewEnvironment([]*resource.Node{resource.NewNode(0, "only", 1.0, "d")})
	cals := EmptyCalendars(env)
	if err := cals[0].Reserve(simtime.Interval{Start: 10, End: 20}, resource.External); err != nil {
		t.Fatal(err)
	}
	opt, err := normalize(env, job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	at := new(builder)
	at.reset(env, cals, job, opt)
	at.attempt()
	own := Placement{Task: 0, Node: 0, Window: simtime.Interval{Start: 30, End: 40}}
	if err := at.reserve(own); err != nil {
		t.Fatal(err)
	}
	merged := cals.Clone()
	if err := merged[0].Reserve(own.Window, resource.Owner{Job: "two", Task: "P"}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []simtime.Interval{{Start: 15, End: 35}, {Start: 35, End: 45}, {Start: 5, End: 50}} {
		got := at.reserve(Placement{Task: 1, Node: 0, Window: w})
		want := merged[0].Reserve(w, resource.Owner{Job: "two", Task: "Q"})
		if want == nil || !reflect.DeepEqual(got, want) {
			t.Errorf("reserve %v: got %v, the merged book %v", w, got, want)
		}
	}
}

// pointerIn names the first part of typ that holds a pointer, "" when none
// does: only booleans and numbers, and structs and arrays of them, hold none.
func pointerIn(typ reflect.Type) string {
	switch k := typ.Kind(); {
	case k == reflect.Struct:
		for i := range typ.NumField() {
			if p := pointerIn(typ.Field(i).Type); p != "" {
				return p
			}
		}
		return ""
	case k == reflect.Array:
		return pointerIn(typ.Elem())
	case k >= reflect.Bool && k <= reflect.Complex128:
		return ""
	}
	return typ.String()
}

func TestReallocateBeatsDelay(t *testing.T) {
	// Two equal parallel tasks, two identical nodes. Reallocation runs them
	// simultaneously on different nodes; the delay baseline queues both on
	// the shared ideal node.
	build := func(mode CollisionMode) *Schedule {
		b := dag.NewBuilder("par").Deadline(100)
		b.Task("A", 10, 10)
		b.Task("B", 10, 10)
		job := b.MustBuild()
		env := resource.NewEnvironment([]*resource.Node{
			resource.NewNode(0, "n0", 1.0, "d"),
			resource.NewNode(1, "n1", 1.0, "d"),
		})
		s, err := Build(env, EmptyCalendars(env), job, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	re := build(ResolveReallocate)
	de := build(ResolveDelay)
	if re.Finish >= de.Finish {
		t.Errorf("reallocate finish %d not better than delay finish %d", re.Finish, de.Finish)
	}
	if de.Finish != 20 {
		t.Errorf("delay mode finish = %d, want 20 (serialized)", de.Finish)
	}
	if re.Finish != 10 {
		t.Errorf("reallocate finish = %d, want 10 (parallel)", re.Finish)
	}
}

func TestCandidateRestriction(t *testing.T) {
	b := dag.NewBuilder("one").Deadline(100)
	b.Task("T", 2, 20)
	job := b.MustBuild()
	env := paperEnv()
	s, err := Build(env, EmptyCalendars(env), job, Options{
		Candidates: []resource.NodeID{1}, // only the type-2 node
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Placements[0].Node != 1 {
		t.Errorf("placed on %d despite restriction", s.Placements[0].Node)
	}
	if got := s.Placements[0].Window.Len(); got != 4 { // tier-2 estimate 2×2
		t.Errorf("duration = %d, want 4", got)
	}
}

func TestReleaseShiftsSchedule(t *testing.T) {
	b := dag.NewBuilder("one").Deadline(200)
	b.Task("T", 2, 20)
	job := b.MustBuild()
	env := paperEnv()
	s, err := Build(env, EmptyCalendars(env), job, Options{Release: 50})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start < 50 {
		t.Errorf("started at %d before release 50", s.Start)
	}
}

func TestActiveReplicationReducesMakespanOrCost(t *testing.T) {
	// Diamond with heavy transfers: replication at least never does worse
	// than remote access. With transfers this heavy the remote-access run
	// may be outright infeasible for the heuristic — that is the sharpest
	// form of replication's advantage.
	mk := func(p data.Policy) (*Schedule, error) {
		b := dag.NewBuilder("dia").Deadline(200)
		b.Task("S", 2, 10)
		b.Task("A", 2, 10)
		b.Task("B", 2, 10)
		b.Task("T", 2, 10)
		b.Edge("d1", "S", "A", 8, 8)
		b.Edge("d2", "S", "B", 8, 8)
		b.Edge("d3", "A", "T", 8, 8)
		b.Edge("d4", "B", "T", 8, 8)
		job := b.MustBuild()
		env := paperEnv()
		return Build(env, EmptyCalendars(env), job, Options{
			Data: data.Model{Policy: p},
		})
	}
	rep, errRep := mk(data.ActiveReplication)
	if errRep != nil {
		t.Fatalf("replication infeasible: %v", errRep)
	}
	rem, errRem := mk(data.RemoteAccess)
	if errRem == nil && rep.Finish > rem.Finish {
		t.Errorf("replication finish %d worse than remote %d", rep.Finish, rem.Finish)
	}
}

func TestScheduleAccountingMatchesPlacements(t *testing.T) {
	job := fig2Job(24)
	env := paperEnv()
	s, err := Build(env, EmptyCalendars(env), job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cf int64
	var start, finish simtime.Time = simtime.Infinity, 0
	for id, p := range s.Placements {
		cf += economy.TaskCharge(job.Task(dag.TaskID(id)).Volume, p.Window.Len())
		if p.Window.Start < start {
			start = p.Window.Start
		}
		if p.Window.End > finish {
			finish = p.Window.End
		}
	}
	if cf != s.Cost {
		t.Errorf("Cost = %d, recomputed %d", s.Cost, cf)
	}
	if start != s.Start || finish != s.Finish {
		t.Errorf("bounds = [%d,%d], recomputed [%d,%d]", s.Start, s.Finish, start, finish)
	}
}

// randomEnv builds 2..6 nodes across the performance range.
func randomEnv(r *rng.Source) *resource.Environment {
	n := r.IntBetween(2, 6)
	nodes := make([]*resource.Node, n)
	perfs := []float64{1.0, 0.8, 0.5, 0.4, 0.33, 0.25}
	for i := 0; i < n; i++ {
		nodes[i] = resource.NewNode(resource.NodeID(i), "n", perfs[r.Intn(len(perfs))], "d")
	}
	return resource.NewEnvironment(nodes)
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

func TestQuickBuildInvariants(t *testing.T) {
	// Whenever Build succeeds: all tasks placed, precedence + transfers
	// hold, no node double-booked (the plan reserves cleanly into the books
	// it was built on), finish within deadline.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		env := randomEnv(r)
		job := randomJob(r)
		model := data.Model{Policy: policies[r.Intn(3)]}
		cals := EmptyCalendars(env)
		// Random background load.
		for i := 0; i < r.Intn(5); i++ {
			n := resource.NodeID(r.Intn(env.NumNodes()))
			st := simtime.Time(r.Intn(40))
			_ = cals[n].Reserve(simtime.Interval{Start: st, End: st + simtime.Time(r.IntBetween(1, 10))}, resource.External)
		}
		s, err := Build(env, cals, job, Options{Data: model, Mode: CollisionMode(r.Intn(2))})
		if err != nil {
			var inf *InfeasibleError
			return errors.As(err, &inf) // only this failure is legitimate
		}
		if len(s.Placements) != job.NumTasks() {
			return false
		}
		if s.Finish > job.Deadline {
			return false
		}
		cat := committedCatalog(s, model)
		for _, e := range job.Edges() {
			from, to := s.Placements[e.From], s.Placements[e.To]
			tt := cat.TransferTime(job.Name, job.Task(e.From).Name, e.BaseTime, from.Node, to.Node)
			if to.Window.Start < from.Window.End+tt {
				return false
			}
		}
		// The plan fits the books it was built on: no task overlaps another
		// or the background load.
		if _, err := applySchedule(cals, s, job.Name); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeterministic(t *testing.T) {
	// Same inputs produce the identical schedule.
	f := func(seed uint64) bool {
		mk := func() (*Schedule, error) {
			r := rng.New(seed)
			env := randomEnv(r)
			job := randomJob(r)
			return Build(env, EmptyCalendars(env), job, Options{})
		}
		a, errA := mk()
		b, errB := mk()
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		if a.Cost != b.Cost || a.Finish != b.Finish || a.Start != b.Start {
			return false
		}
		for id, pa := range a.Placements {
			pb := b.Placements[id]
			if pa != pb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickDelayNeverBeatsReallocate(t *testing.T) {
	// For a single-chain job, the economic reallocation (full DP) never
	// produces a later finish than the pinned-node delay baseline, and
	// whenever delay succeeds, reallocate succeeds. (Multi-chain jobs can
	// couple through earlier placements, so the guarantee is per chain.)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		env := randomEnv(r)
		n := r.IntBetween(1, 6)
		b := dag.NewBuilder("line")
		var span simtime.Time
		prev := ""
		for i := 0; i < n; i++ {
			name := string(rune('A' + i))
			bt := simtime.Time(r.IntBetween(1, 6))
			span += bt * 4
			b.Task(name, bt, int64(r.IntBetween(0, 30)))
			if prev != "" {
				tt := simtime.Time(r.IntBetween(0, 3))
				span += tt
				b.Edge(prev+name, prev, name, tt, 1)
			}
			prev = name
		}
		b.Deadline(span + simtime.Time(r.IntBetween(0, 20)))
		job := b.MustBuild()
		re, errRe := Build(env, EmptyCalendars(env), job, Options{Mode: ResolveReallocate})
		de, errDe := Build(env, EmptyCalendars(env), job, Options{Mode: ResolveDelay})
		if errDe == nil && errRe != nil {
			return false
		}
		if errRe != nil || errDe != nil {
			return true
		}
		return re.Finish <= de.Finish
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
