package criticalworks

import (
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/economy"
	"repro/internal/estimate"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// memoizedBuild runs a CaptureMemo build of job against live and
// returns the schedule (whose memo reads live's generations) plus the
// catalog the build adopted into.
func memoizedBuild(t *testing.T, env *resource.Environment, live Calendars, job *dag.Job, opt Options) (*Schedule, *data.Catalog) {
	t.Helper()
	if opt.Catalog == nil {
		opt.Catalog = data.NewCatalog(data.RemoteAccess, 0)
	}
	opt.CaptureMemo = true
	s, err := Build(env, live, job, opt)
	if err != nil {
		t.Fatalf("memoized build: %v", err)
	}
	if s.Memo() == nil {
		t.Fatal("build succeeded above margin 1: no memo to test against")
	}
	return s, opt.Catalog
}

// sameSchedule asserts byte-identical schedule content: placements,
// collisions, cost accounting and bounds. Evaluations are deliberately
// excluded (repair.go documents the divergence).
func sameSchedule(t *testing.T, got, want *Schedule) {
	t.Helper()
	if got.Partial != want.Partial {
		t.Fatalf("Partial = %v, want %v", got.Partial, want.Partial)
	}
	if !reflect.DeepEqual(got.Placements, want.Placements) {
		t.Errorf("placements differ:\n got %v\nwant %v", got.Placements, want.Placements)
	}
	if !reflect.DeepEqual(got.Collisions, want.Collisions) {
		t.Errorf("collisions differ:\n got %v\nwant %v", got.Collisions, want.Collisions)
	}
	if got.Cost != want.Cost || got.BareCF != want.BareCF {
		t.Errorf("cost = (%v,%d), want (%v,%d)", got.Cost, got.BareCF, want.Cost, want.BareCF)
	}
	if got.Start != want.Start || got.Finish != want.Finish {
		t.Errorf("bounds = [%d,%d], want [%d,%d]", got.Start, got.Finish, want.Start, want.Finish)
	}
}

// liveGens resolves generations from the test's stand-in live books.
func liveGens(live Calendars) func(resource.NodeID) uint64 {
	return func(id resource.NodeID) uint64 { return live[id].Gen() }
}

// snapOf hands TryRepair the test's live books themselves: it only reads.
func snapOf(live Calendars) func() Calendars {
	return func() Calendars { return live }
}

// noSnap fails the test if the repair path snapshots calendars: a full
// replay must not read any.
func noSnap(t *testing.T) func() Calendars {
	return func() Calendars {
		t.Fatal("full replay took a calendar snapshot")
		return nil
	}
}

func TestRepairFullReplay(t *testing.T) {
	job := fig2Job(20)
	env := paperEnv()
	live := EmptyCalendars(env)
	s, cat := memoizedBuild(t, env, live, job, Options{})

	cat2 := data.NewCatalog(data.RemoteAccess, 0)
	got, out := TryRepair(env, job, Options{CaptureMemo: true, Catalog: cat2}, s.Memo(), liveGens(live), noSnap(t))
	if out != RepairReplayed {
		t.Fatalf("outcome = %v, want replayed", out)
	}
	sameSchedule(t, got, s)
	if got.Evaluations != s.Evaluations {
		t.Errorf("replay evaluations = %d, want the memoized %d", got.Evaluations, s.Evaluations)
	}
	if !reflect.DeepEqual(cat, cat2) {
		t.Error("replayed catalog state differs from the build's")
	}
	if got.Memo() == nil {
		t.Error("replayed schedule dropped its memo")
	}
}

func TestRepairSplice(t *testing.T) {
	// Two independent critical works: the A-chain (the longer one, placed
	// first) and the lone task B, which lands on the second fast node
	// because the first is taken. Removing that node forces a genuine
	// splice — the A-chain replays, B re-solves with plenty of slack.
	// (fig2's second chain is sandwiched between first-chain placements,
	// so removing its node makes margin 1 infeasible and the repair goes
	// legitimately stale instead; TestRepairStaleOnFirstChainRemoval and
	// the fuzz target cover that regime.)
	b := dag.NewBuilder("splice").Deadline(100)
	b.Task("A1", 2, 20)
	b.Task("A2", 2, 20)
	b.Task("B", 2, 10)
	b.Edge("d", "A1", "A2", 1, 10)
	job := b.MustBuild()
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "n0", 1.0, 1, "d"),
		resource.NewNode(1, "n1", 1.0, 1, "d"),
		resource.NewNode(2, "n2", 0.5, 1, "d"),
	})
	live := EmptyCalendars(env)
	s, _ := memoizedBuild(t, env, live, job, Options{})
	memo := s.Memo()

	// Find a node first touched by a non-first chain: removing it forces a
	// genuine splice (replayed prefix + resumed DP).
	target, wantAt := resource.NodeID(0), 0
	for i := 1; i < len(memo.Chains) && wantAt == 0; i++ {
	scan:
		for _, n := range memo.Chains[i].Touched {
			for j := 0; j < i; j++ {
				for _, m := range memo.Chains[j].Touched {
					if m == n {
						continue scan
					}
				}
			}
			target, wantAt = n, i
			break
		}
	}
	if wantAt == 0 {
		t.Fatal("fig2 build left no node to splice on; restructure the test job")
	}
	var survivors []resource.NodeID
	for _, id := range memo.Candidates {
		if id != target {
			survivors = append(survivors, id)
		}
	}

	cat := data.NewCatalog(data.RemoteAccess, 0)
	got, out := TryRepair(env, job, Options{CaptureMemo: true, Catalog: cat, Candidates: survivors}, memo, liveGens(live), snapOf(live))
	if out != RepairSpliced {
		t.Fatalf("outcome = %v, want spliced (removed node %d, splice at %d)", out, target, wantAt)
	}

	// The hard contract: the spliced schedule and its catalog are exactly
	// what a from-scratch Build over the survivors returns, and the plan
	// fits the live books.
	refCat := data.NewCatalog(data.RemoteAccess, 0)
	want, err := Build(env, live, job, Options{Catalog: refCat, Candidates: survivors})
	if err != nil {
		t.Fatalf("reference build failed where splice succeeded: %v", err)
	}
	sameSchedule(t, got, want)
	if !reflect.DeepEqual(cat, refCat) {
		t.Error("spliced catalog state differs from the reference build's")
	}
	if _, err := applySchedule(live, got, job.Name); err != nil {
		t.Errorf("the spliced plan does not fit the live books: %v", err)
	}

	// The spliced build memoizes itself: repairing again over the same
	// survivors replays it whole.
	if got.Memo() == nil {
		t.Fatal("spliced schedule carries no memo")
	}
	again, out := TryRepair(env, job, Options{Candidates: survivors, Catalog: data.NewCatalog(data.RemoteAccess, 0)},
		got.Memo(), liveGens(live), noSnap(t))
	if out != RepairReplayed {
		t.Fatalf("re-repair outcome = %v, want replayed", out)
	}
	sameSchedule(t, again, got)
}

func TestRepairStaleOnFirstChainRemoval(t *testing.T) {
	job := fig2Job(20)
	env := paperEnv()
	live := EmptyCalendars(env)
	s, _ := memoizedBuild(t, env, live, job, Options{})
	memo := s.Memo()

	// Removing a node the FIRST chain touched would splice at 0 — no
	// cheaper than Build — so the memo must report stale.
	target := memo.Chains[0].Touched[0]
	var survivors []resource.NodeID
	for _, id := range memo.Candidates {
		if id != target {
			survivors = append(survivors, id)
		}
	}
	if _, out := TryRepair(env, job, Options{Candidates: survivors}, memo, liveGens(live), snapOf(live)); out != RepairStale {
		t.Fatalf("outcome = %v, want stale", out)
	}
}

func TestRepairStaleCases(t *testing.T) {
	job := fig2Job(20)
	env := paperEnv()
	live := EmptyCalendars(env)
	s, _ := memoizedBuild(t, env, live, job, Options{})
	memo := s.Memo()

	cases := []struct {
		name string
		opt  Options
		gens func(resource.NodeID) uint64
	}{
		{name: "nil memo"},
		{name: "release mismatch", opt: Options{Release: 1}},
		{name: "deadline mismatch", opt: Options{Deadline: 25}},
		{name: "objective mismatch", opt: Options{Objective: MinCost}},
		{name: "delay mode", opt: Options{Mode: ResolveDelay}},
		{name: "pricing mismatch", opt: Options{Pricing: economy.PerformancePricing{Base: 10}}},
		{name: "unknown candidate", opt: Options{Candidates: []resource.NodeID{0, 1, 2, 9}}},
		{name: "reordered candidates", opt: Options{Candidates: []resource.NodeID{1, 0, 2, 3}}},
		{name: "generation moved", gens: func(id resource.NodeID) uint64 { return live[id].Gen() + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := memo
			if tc.name == "nil memo" {
				m = nil
			}
			gens := tc.gens
			if gens == nil {
				gens = liveGens(live)
			}
			if _, out := TryRepair(env, job, tc.opt, m, gens, snapOf(live)); out != RepairStale {
				t.Fatalf("outcome = %v, want stale", out)
			}
		})
	}

	t.Run("dirty catalog", func(t *testing.T) {
		cat := data.NewCatalog(data.RemoteAccess, 0)
		cat.Commit("other", "X", 0, 1)
		if _, out := TryRepair(env, job, Options{Catalog: cat}, memo, liveGens(live), snapOf(live)); out != RepairStale {
			t.Fatalf("outcome = %v, want stale", out)
		}
	})

	t.Run("live reservation bumps generation", func(t *testing.T) {
		bumped := live.Clone()
		if err := bumped[0].Reserve(simtime.Interval{Start: 100, End: 110}, resource.External); err != nil {
			t.Fatal(err)
		}
		if _, out := TryRepair(env, job, Options{}, memo, liveGens(bumped), snapOf(bumped)); out != RepairStale {
			t.Fatalf("outcome = %v, want stale", out)
		}
	})
}

// TestRepairTableIdentity pins the memo's table rule. A table that is
// estimate.Derive of the job is interchangeable with any other such table
// and with the defaulted one — the strategy sweep derives one per
// generation and the fallback ladder, later, none — and the memo does not
// keep it alive. Any other table must be the very same one.
func TestRepairTableIdentity(t *testing.T) {
	job := fig2Job(20)
	env := paperEnv()
	live := EmptyCalendars(env)
	outcome := func(memo *BuildMemo, tab *estimate.Table) RepairOutcome {
		_, out := TryRepair(env, job, Options{Table: tab}, memo, liveGens(live), snapOf(live))
		return out
	}

	shared, _ := memoizedBuild(t, env, live, job, Options{Table: estimate.Derive(job)})
	defaulted, _ := memoizedBuild(t, env, live, job, Options{})
	for name, memo := range map[string]*BuildMemo{"handed a derived table": shared.Memo(), "defaulted": defaulted.Memo()} {
		if memo.table != nil {
			t.Errorf("%s: the memo retains the derived table", name)
		}
		if out := outcome(memo, nil); out != RepairReplayed {
			t.Errorf("%s, repaired with no table: %v, want replayed", name, out)
		}
		if out := outcome(memo, estimate.Derive(job)); out != RepairReplayed {
			t.Errorf("%s, repaired with another derived table: %v, want replayed", name, out)
		}
	}

	// The same numbers, but no longer provably Derive(job): touched by
	// SetRow, or derived from a different Job value.
	touched := estimate.Derive(job)
	if err := touched.SetRow(0, estimate.Row{Times: [resource.NumTiers]simtime.Time{2, 4, 6, 8}, Volume: 20}); err != nil {
		t.Fatal(err)
	}
	for name, tab := range map[string]*estimate.Table{"touched": touched, "other job": estimate.Derive(job.WithDeadline(20))} {
		if out := outcome(shared.Memo(), tab); out != RepairStale {
			t.Errorf("%s table against a derived-table memo: %v, want stale", name, out)
		}
		own, _ := memoizedBuild(t, env, live, job, Options{Table: tab})
		sameSchedule(t, own, shared)
		if out := outcome(own.Memo(), tab); out != RepairReplayed {
			t.Errorf("%s table against its own memo: %v, want replayed", name, out)
		}
		if out := outcome(own.Memo(), nil); out != RepairStale {
			t.Errorf("no table against a %s-table memo: %v, want stale", name, out)
		}
	}
}

func TestMemoCaptureGating(t *testing.T) {
	job := fig2Job(20)
	env := paperEnv()

	s, err := Build(env, EmptyCalendars(env), job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Memo() != nil {
		t.Error("memo captured without CaptureMemo")
	}

	s, err = Build(env, EmptyCalendars(env), job, Options{CaptureMemo: true, Mode: ResolveDelay})
	if err != nil {
		t.Fatal(err)
	}
	if s.Memo() != nil {
		t.Error("memo captured in ResolveDelay mode")
	}
}

// FuzzRepairSplice drives random (environment, job, background load,
// candidate subset) tuples through TryRepair and pins the hard contract:
// whenever repair reports replayed or spliced, the schedule and the adopted
// catalog are identical — placement for placement, collision for collision —
// to a from-scratch Build over the same survivors and books, and the plan
// reserves cleanly into those books. Stale is always a legal answer; Evaluations are
// the one field allowed to differ.
func FuzzRepairSplice(f *testing.F) {
	for seed := uint64(1); seed <= 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		env := randomEnv(r)
		job := randomJob(r)
		live := EmptyCalendars(env)
		for i := 0; i < r.Intn(4); i++ {
			n := resource.NodeID(r.Intn(env.NumNodes()))
			st := simtime.Time(r.Intn(30))
			_ = live[n].Reserve(simtime.Interval{Start: st, End: st + simtime.Time(r.IntBetween(1, 8))}, resource.External)
		}
		policy := data.Policy(r.Intn(3))
		opt := Options{
			Objective:   Objective(r.Intn(2)),
			Catalog:     data.NewCatalog(policy, 0),
			CaptureMemo: true,
		}
		s, err := Build(env, live, job, opt)
		if err != nil || s.Memo() == nil {
			return // infeasible, or feasible only above margin 1: nothing to repair
		}
		memo := s.Memo()

		// An order-preserving random subsequence of the memoized candidates.
		var survivors []resource.NodeID
		for _, id := range memo.Candidates {
			if !r.Bool(0.35) {
				survivors = append(survivors, id)
			}
		}
		if len(survivors) == 0 {
			return
		}

		cat := data.NewCatalog(policy, 0)
		got, out := TryRepair(env, job, Options{Catalog: cat, Candidates: survivors}, memo, liveGens(live), snapOf(live))
		if out == RepairStale {
			if got != nil {
				t.Fatal("stale repair returned a schedule")
			}
			return
		}

		refCat := data.NewCatalog(policy, 0)
		want, err := Build(env, live, job, Options{Catalog: refCat, Candidates: survivors})
		if err != nil {
			t.Fatalf("seed %d: repair %v but reference build failed: %v", seed, out, err)
		}
		sameSchedule(t, got, want)
		if !reflect.DeepEqual(cat, refCat) {
			t.Errorf("seed %d: catalog state diverged after %v", seed, out)
		}
		if _, err := applySchedule(live, got, job.Name); err != nil {
			t.Errorf("seed %d: the %v plan does not fit the live books: %v", seed, out, err)
		}
	})
}
