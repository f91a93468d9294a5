package strategy

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

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

// mixedEnv covers all four estimation tiers: perf 1.0 and 0.8 are tier 1,
// 0.5 tier 2, 0.33 tier 3, 0.25 tier 4.
func mixedEnv() *resource.Environment {
	return resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "t1a", 1.0, "d"),
		resource.NewNode(1, "t1b", 0.8, "d"),
		resource.NewNode(2, "t2", 0.5, "d"),
		resource.NewNode(3, "t3", 0.33, "d"),
		resource.NewNode(4, "t4", 0.25, "d"),
	})
}

func TestTypeMetadata(t *testing.T) {
	tests := []struct {
		typ    Type
		name   string
		policy data.Policy
		coarse bool
		levels int
	}{
		{S1, "S1", data.ActiveReplication, false, 4},
		{S2, "S2", data.RemoteAccess, false, 4},
		{S3, "S3", data.StaticStorage, true, 4},
		{MS1, "MS1", data.ActiveReplication, false, 2},
	}
	for _, tt := range tests {
		if tt.typ.String() != tt.name {
			t.Errorf("String = %s", tt.typ.String())
		}
		if tt.typ.DataPolicy() != tt.policy {
			t.Errorf("%s policy = %v", tt.name, tt.typ.DataPolicy())
		}
		if tt.typ.CoarseGrain() != tt.coarse {
			t.Errorf("%s coarse = %v", tt.name, tt.typ.CoarseGrain())
		}
		if got := tt.typ.Levels(); len(got) != tt.levels {
			t.Errorf("%s levels = %v", tt.name, got)
		}
	}
	if lv := MS1.Levels(); lv[0] != 1 || lv[1] != resource.NumTiers {
		t.Errorf("MS1 levels = %v, want best and worst", lv)
	}
}

func TestGenerateS1Fig2(t *testing.T) {
	env := mixedEnv()
	g := &Generator{Env: env}
	s, err := g.Generate(fig2Job(40), S1, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Type != S1 || s.Scheduled != s.Job {
		t.Error("S1 must schedule the original fine-grain job")
	}
	if len(s.Distributions)+len(s.FailedLevels) != 4 {
		t.Errorf("levels accounted = %d + %d, want 4", len(s.Distributions), len(s.FailedLevels))
	}
	if !s.Admissible() {
		t.Error("fig2 with deadline 40 must be admissible")
	}
	// Level-1 distribution uses all nodes and must finish earliest.
	if s.Distributions[0].Level != 1 {
		t.Fatalf("first distribution level = %d", s.Distributions[0].Level)
	}
	for _, d := range s.Distributions[1:] {
		if d.Admissible && d.Finish < s.Distributions[0].Finish {
			t.Errorf("level %d finishes at %d, before level 1's %d", d.Level, d.Finish, s.Distributions[0].Finish)
		}
	}
	if s.Evaluations <= 0 {
		t.Error("Evaluations not accumulated")
	}
}

func TestLevelRestrictsNodes(t *testing.T) {
	env := mixedEnv()
	g := &Generator{Env: env}
	b := dag.NewBuilder("one").Deadline(100)
	b.Task("T", 2, 20)
	job := b.MustBuild()
	s, err := g.Generate(job, S1, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Distributions {
		node := env.Node(d.Placements[0].Node)
		if node.Tier() < d.Level {
			t.Errorf("level %d used tier-%d node", d.Level, node.Tier())
		}
	}
}

func TestCheapestAdmissiblePrefersSlowLevels(t *testing.T) {
	// Single task, loose deadline: every level admissible; the level-4
	// distribution (slowest node, longest T, smallest ceil(V/T)) is
	// cheapest.
	env := mixedEnv()
	g := &Generator{Env: env}
	b := dag.NewBuilder("one").Deadline(100)
	b.Task("T", 2, 20)
	job := b.MustBuild()
	s, err := g.Generate(job, S1, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Distributions) != 4 {
		t.Fatalf("distributions = %d, want 4", len(s.Distributions))
	}
	cheap := s.CheapestAdmissible()
	if cheap == nil || cheap.Level != 4 {
		t.Fatalf("cheapest = %+v, want level 4", cheap)
	}
	fast := s.FastestAdmissible()
	if fast == nil || fast.Level != 1 {
		t.Fatalf("fastest = %+v, want level 1", fast)
	}
	if fast.Cost <= cheap.Cost {
		t.Errorf("fast cost %v not above cheap cost %v — paying for speed is the point", fast.Cost, cheap.Cost)
	}
}

func TestTightDeadlineDropsSlowLevels(t *testing.T) {
	env := mixedEnv()
	g := &Generator{Env: env}
	b := dag.NewBuilder("one").Deadline(2)
	b.Task("T", 2, 20)
	job := b.MustBuild()
	s, err := g.Generate(job, S1, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Admissible() {
		t.Fatal("level 1 must be admissible at deadline 2")
	}
	for _, d := range s.Distributions {
		if d.Level > 1 && d.Admissible {
			t.Errorf("level %d admissible at deadline 2 (duration ≥ %d)", d.Level, 2*d.Level)
		}
	}
}

func TestMS1CheaperToGenerateThanS1(t *testing.T) {
	env := mixedEnv()
	g := &Generator{Env: env}
	job := fig2Job(40)
	s1, err := g.Generate(job, S1, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	ms1, err := g.Generate(job, MS1, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ms1.Evaluations >= s1.Evaluations {
		t.Errorf("MS1 evaluations %d not below S1's %d", ms1.Evaluations, s1.Evaluations)
	}
	if len(ms1.Distributions)+len(ms1.FailedLevels) != 2 {
		t.Errorf("MS1 levels = %d", len(ms1.Distributions)+len(ms1.FailedLevels))
	}
}

func TestS3SchedulesCoarseJob(t *testing.T) {
	env := mixedEnv()
	g := &Generator{Env: env}
	b := dag.NewBuilder("line").Deadline(100)
	b.Task("A", 2, 10)
	b.Task("B", 3, 10)
	b.Task("C", 2, 10)
	b.Edge("e1", "A", "B", 4, 5)
	b.Edge("e2", "B", "C", 4, 5)
	job := b.MustBuild()
	s, err := g.Generate(job, S3, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheduled == s.Job {
		t.Fatal("S3 did not coarsen")
	}
	if s.Scheduled.NumTasks() != 1 {
		t.Errorf("coarse job has %d tasks, want 1", s.Scheduled.NumTasks())
	}
	if !s.Admissible() {
		t.Error("coarse linear job inadmissible at loose deadline")
	}
}

func TestAdmissibleAfterSkipsUsedLevels(t *testing.T) {
	env := mixedEnv()
	g := &Generator{Env: env}
	b := dag.NewBuilder("one").Deadline(100)
	b.Task("T", 2, 20)
	job := b.MustBuild()
	s, err := g.Generate(job, S1, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	var used Levels
	var picked []resource.Tier
	for {
		d := s.AdmissibleAfter(used)
		if d == nil {
			break
		}
		picked = append(picked, d.Level)
		used[d.Level] = true
	}
	if len(picked) != 4 {
		t.Fatalf("fallback sequence = %v, want all 4 levels", picked)
	}
	seen := map[resource.Tier]bool{}
	for _, lv := range picked {
		if seen[lv] {
			t.Fatalf("level %d picked twice: %v", lv, picked)
		}
		seen[lv] = true
	}
	// Costs must be non-decreasing along the fallback order.
	var lastCost int64 = -1
	for i, lv := range picked {
		for _, d := range s.Distributions {
			if d.Level == lv {
				if d.Cost < lastCost {
					t.Errorf("fallback %d (level %d) cost %v below previous %v", i, lv, d.Cost, lastCost)
				}
				lastCost = d.Cost
			}
		}
	}
}

func TestGenerateDoesNotMutateBase(t *testing.T) {
	env := mixedEnv()
	g := &Generator{Env: env}
	base := criticalworks.EmptyCalendars(env)
	if _, err := g.Generate(fig2Job(40), S1, base, 0); err != nil {
		t.Fatal(err)
	}
	for id, c := range base {
		if c.Len() != 0 {
			t.Errorf("base calendar of node %d mutated: %d reservations", id, c.Len())
		}
	}
}

func TestCollisionsByGroupCountsAtContendedNodes(t *testing.T) {
	// Only one fast node: the level-1 distribution of a fork job must
	// collide there.
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "fast", 1.0, "d"),
		resource.NewNode(1, "slow", 0.25, "d"),
	})
	reg := telemetry.NewRegistry()
	g := &Generator{Env: env, Telemetry: reg}
	b := dag.NewBuilder("fork").Deadline(60)
	b.Task("S", 2, 8)
	b.Task("A", 4, 16)
	b.Task("B", 4, 16)
	b.Edge("dA", "S", "A", 1, 1)
	b.Edge("dB", "S", "B", 1, 1)
	job := b.MustBuild()
	if _, err := g.Generate(job, S2, criticalworks.EmptyCalendars(env), 0); err != nil {
		t.Fatal(err)
	}
	if collisionsCounted(reg) == 0 {
		t.Fatal("no collisions recorded on a contended environment")
	}
}

func TestFailedLevelsWhenNoCandidates(t *testing.T) {
	// Environment with only tier-1 nodes: levels 2..4 have no candidates.
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "f", 1.0, "d"),
	})
	g := &Generator{Env: env}
	b := dag.NewBuilder("one").Deadline(50)
	b.Task("T", 2, 20)
	job := b.MustBuild()
	s, err := g.Generate(job, S1, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Distributions) != 1 || len(s.FailedLevels) != 3 {
		t.Errorf("distributions=%d failed=%v", len(s.Distributions), s.FailedLevels)
	}
}

func TestQuickGenerateDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		mk := func() *Strategy {
			r := rng.New(seed)
			env := mixedEnv()
			b := dag.NewBuilder("q").Deadline(simtime.Time(r.IntBetween(10, 120)))
			n := r.IntBetween(1, 6)
			names := make([]string, n)
			for i := range names {
				names[i] = string(rune('A' + i))
				b.Task(names[i], simtime.Time(r.IntBetween(1, 5)), int64(r.IntBetween(1, 30)))
			}
			for to := 1; to < n; to++ {
				for from := 0; from < to; from++ {
					if r.Bool(0.3) {
						b.Edge(names[from]+names[to], names[from], names[to], simtime.Time(r.Intn(3)), 1)
					}
				}
			}
			job := b.MustBuild()
			typ := AllTypes[r.Intn(len(AllTypes))]
			g := &Generator{Env: env}
			s, err := g.Generate(job, typ, criticalworks.EmptyCalendars(env), 0)
			if err != nil {
				return nil
			}
			return s
		}
		a, c := mk(), mk()
		if (a == nil) != (c == nil) {
			return false
		}
		if a == nil {
			return true
		}
		if len(a.Distributions) != len(c.Distributions) || a.Evaluations != c.Evaluations {
			return false
		}
		for i := range a.Distributions {
			da, dc := a.Distributions[i], c.Distributions[i]
			if da.Level != dc.Level || da.Cost != dc.Cost || da.Finish != dc.Finish || da.Admissible != dc.Admissible {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickAdmissibleMeansDeadlineMet(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		env := mixedEnv()
		b := dag.NewBuilder("q").Deadline(simtime.Time(r.IntBetween(5, 80)))
		b.Task("A", simtime.Time(r.IntBetween(1, 6)), 10)
		b.Task("B", simtime.Time(r.IntBetween(1, 6)), 10)
		b.Edge("e", "A", "B", simtime.Time(r.Intn(4)), 1)
		job := b.MustBuild()
		g := &Generator{Env: env}
		s, err := g.Generate(job, AllTypes[r.Intn(4)], criticalworks.EmptyCalendars(env), 0)
		if err != nil {
			return false
		}
		for _, d := range s.Distributions {
			if d.Admissible != (d.Finish <= job.Deadline) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGenerateCtxCancellation(t *testing.T) {
	env := mixedEnv()
	g := &Generator{Env: env}
	job := fig2Job(40)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.GenerateCtx(ctx, job, S1, criticalworks.EmptyCalendars(env), 0); err == nil {
		t.Fatal("cancelled context produced a strategy")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}

	// A live context reproduces Generate byte for byte.
	want, err := g.Generate(job, S1, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.GenerateCtx(context.Background(), job, S1, criticalworks.EmptyCalendars(env), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Distributions) != len(want.Distributions) || got.Evaluations != want.Evaluations {
		t.Fatal("GenerateCtx with background context diverged from Generate")
	}
	for i := range want.Distributions {
		w, g2 := want.Distributions[i], got.Distributions[i]
		if w.Level != g2.Level || w.Cost != g2.Cost || w.Finish != g2.Finish {
			t.Fatalf("level %d differs", i)
		}
	}
}

// TestCandidatesPerLevelInPoolOrder: a level's list is the pool filtered by
// "up and of tier ≥ level" in the pool's own order — the DP breaks ties by
// candidate index, so a list in any other order is another plan — for a
// shuffled pool, the whole environment (nil pool) and a node down. Each list
// goes back to candidateBufs before the next is taken, so the next may be
// filled over a longer one's leftovers.
func TestCandidatesPerLevelInPoolOrder(t *testing.T) {
	env := mixedEnv()
	env.Node(1).MarkDown(0)
	for _, pool := range [][]resource.NodeID{nil, {4, 0, 3, 1, 2}, {2, 1}, {1}} {
		g := &Generator{Env: env, Pool: pool}
		from := pool
		if from == nil {
			from = []resource.NodeID{0, 1, 2, 3, 4}
		}
		for _, level := range []resource.Tier{4, 1, 3, 2} {
			var want []resource.NodeID
			for _, id := range from {
				if n := env.Node(id); n.Up() && n.Tier() >= level {
					want = append(want, id)
				}
			}
			got := g.candidates(level)
			if !slices.Equal(*got, want) {
				t.Errorf("pool %v, level %d: candidates %v, want %v", pool, level, *got, want)
			}
			candidateBufs.Put(got)
		}
	}
}

// pollPanicCtx is a context whose Err panics on its nth poll; 0 never.
type pollPanicCtx struct {
	context.Context
	polls *int
	n     int
}

func (c pollPanicCtx) Err() error {
	*c.polls++
	if *c.polls == c.n {
		panic("poll exploded")
	}
	return c.Context.Err()
}

// TestGeneratePanicNamesTheLevel: a build that panics comes back from
// GenerateCtx as an error naming the job and the level being built, not as a
// panic. The sweep polls its context once before each level and the build
// polls it at its checkpoints: the second poll is inside level 1's build, the
// last one inside the last level's. The base books do not move.
func TestGeneratePanicNamesTheLevel(t *testing.T) {
	env := mixedEnv()
	base := criticalworks.EmptyCalendars(env)
	g := &Generator{Env: env}
	job := fig2Job(40)
	total := 0
	if _, err := g.GenerateCtx(pollPanicCtx{context.Background(), &total, 0}, job, S1, base, 0); err != nil {
		t.Fatal(err)
	}
	if total <= len(S1.Levels()) {
		t.Fatalf("%d polls over %d levels: the builds no longer poll their context", total, len(S1.Levels()))
	}
	for _, c := range []struct {
		n     int
		level string
	}{{2, "level 1"}, {total, "level 4"}} {
		polls := 0
		s, err := g.GenerateCtx(pollPanicCtx{context.Background(), &polls, c.n}, job, S1, base, 0)
		if err == nil || s != nil {
			t.Fatalf("poll %d panicked: strategy %v, error %v; want only an error", c.n, s, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "job fig2 "+c.level+":") || !strings.Contains(msg, "poll exploded") {
			t.Errorf("poll %d: error %q does not name the job, %s and the panic", c.n, msg, c.level)
		}
	}
	for id, c := range base {
		if c.Gen() != 0 || c.Len() != 0 {
			t.Errorf("node %d: a panicking build moved the base book", id)
		}
	}
}

// TestGenerateSaysWhyLevelsFailed: a failed level reports how its build knew
// — the ladder, or a proof after margin 1 ("infeasible"), or a refusal
// before any attempt ("hopeless") — on the strategy.level and
// criticalworks.build spans and as the result label of
// grid_criticalworks_builds_total, whose sum across labels still counts
// every build. A level refused because an earlier one failed on its first
// critical work is a "refused" strategy.level span with no build under it.
//
// Fig. 2's job has a 12-tick critical path on tier 1. At deadline 20, with
// every node booked for the first 10 ticks, level 1 passes the admissibility
// bound, its first attempt finds no placement for the first critical work,
// and the DP cut spares the other four margins; levels 2–4 are refused.
// Released at its deadline, the job has no window at all: level 1 is
// refused before any attempt — a "hopeless" level, not one without
// candidates — and levels 2–4 with it.
func TestGenerateSaysWhyLevelsFailed(t *testing.T) {
	env := mixedEnv()
	base := criticalworks.EmptyCalendars(env)
	for _, c := range base {
		if err := c.Reserve(simtime.Interval{Start: 0, End: 10}, resource.External); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		release  simtime.Time
		level1   string // level 1's result, on its level span and its build span
		attempts int
	}{
		{"dp cut", 0, "infeasible", 1},
		{"no window", 20, "hopeless", 0},
	} {
		var buf bytes.Buffer
		reg := telemetry.NewRegistry()
		g := &Generator{Env: env, Telemetry: reg, Spans: telemetry.NewTracer(&buf)}
		s, err := g.Generate(fig2Job(20), S1, base, tc.release)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Distributions) != 0 || !slices.Equal(s.FailedLevels, []resource.Tier{1, 2, 3, 4}) {
			t.Fatalf("%s: built %d levels, failed %v; want all four failed", tc.name, len(s.Distributions), s.FailedLevels)
		}

		results := map[string]map[string]int{} // span name → result → count
		attemptEvals := int64(0)
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			var sp struct {
				Name  string
				Attrs struct {
					Result      string
					Evaluations int64
				}
			}
			if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
				t.Fatalf("bad span line %q: %v", sc.Text(), err)
			}
			if results[sp.Name] == nil {
				results[sp.Name] = map[string]int{}
			}
			results[sp.Name][sp.Attrs.Result]++
			if sp.Name == "criticalworks.attempt" {
				attemptEvals += sp.Attrs.Evaluations
			}
		}
		if want := map[string]int{tc.level1: 1, "refused": 3}; !reflect.DeepEqual(results["strategy.level"], want) {
			t.Errorf("%s: strategy.level span results = %v, want %v", tc.name, results["strategy.level"], want)
		}
		if want := map[string]int{tc.level1: 1}; !reflect.DeepEqual(results["criticalworks.build"], want) {
			t.Errorf("%s: criticalworks.build span results = %v, want level 1's only: %v", tc.name, results["criticalworks.build"], want)
		}
		if got := results["criticalworks.attempt"]["infeasible"]; got != tc.attempts || len(results["criticalworks.attempt"]) > 1 {
			t.Errorf("%s: criticalworks.attempt span results = %v, want %d infeasible", tc.name, results["criticalworks.attempt"], tc.attempts)
		}
		for _, result := range []string{"infeasible", "hopeless", "ok"} {
			want := uint64(0)
			if result == tc.level1 {
				want = 1
			}
			if got := reg.Counter("grid_criticalworks_builds_total", "", telemetry.L("result", result)).Value(); got != want {
				t.Errorf("%s: grid_criticalworks_builds_total{result=%q} = %d, want %d", tc.name, result, got, want)
			}
		}
		// A refused level spends no probes: the strategy's count is level 1's.
		if (s.Evaluations == 0) != (tc.attempts == 0) || s.Evaluations != attemptEvals {
			t.Errorf("%s: Evaluations = %d, want the %d probes of level 1's attempts", tc.name, s.Evaluations, attemptEvals)
		}
	}
}

// everyLevelBuilt is the reference for the level cascade: Generate as it was
// before the cascade, every level of the family built on its own by
// BuildLevelCtx, in level order. Its Evaluations are what the builds added
// to g's evaluations counter.
func everyLevelBuilt(g *Generator, job *dag.Job, typ Type, base criticalworks.Calendars, release simtime.Time) (*Strategy, error) {
	evals := g.Telemetry.Counter("grid_criticalworks_evaluations_total", "")
	before := evals.Value()
	s := &Strategy{Job: job, Type: typ, Scheduled: job}
	if typ.CoarseGrain() {
		coarse, err := dag.Coarsen(job)
		if err != nil {
			return nil, err
		}
		s.Scheduled = coarse
	}
	for _, level := range typ.Levels() {
		d, err := g.BuildLevelCtx(context.Background(), s.Scheduled, job.Name, typ, level, base, release)
		if err != nil {
			return nil, err
		}
		if d == nil {
			s.FailedLevels = append(s.FailedLevels, level)
			continue
		}
		s.Distributions = append(s.Distributions, *d)
	}
	s.Evaluations = int64(evals.Value() - before)
	return s, nil
}

// sweepCase is one input of TestSweepMatchesEveryLevelBuilt.
type sweepCase struct {
	name    string
	env     *resource.Environment
	job     *dag.Job
	books   criticalworks.Calendars
	release simtime.Time
}

// sweepCorpus is Fig. 2 at deadlines from hopeless to generous, on empty
// books, on books busy for the first 10 ticks and on dense random books,
// released at 0, at 3 and at its deadline; plus random jobs of up to seven
// tasks in the manner of criticalworks' fuzz decoder, on books from empty to
// dense, on mixedEnv and on a larger environment with a node down.
func sweepCorpus() []sweepCase {
	book := func(env *resource.Environment, r *rng.Source, per int, until simtime.Time) criticalworks.Calendars {
		cals := criticalworks.EmptyCalendars(env)
		for n := 0; n < env.NumNodes(); n++ {
			for k := 0; k < per; k++ {
				st := simtime.Time(r.Intn(int(until)))
				_ = cals[resource.NodeID(n)].Reserve(simtime.Interval{Start: st, End: st + simtime.Time(r.IntBetween(1, 6))}, resource.External)
			}
		}
		return cals
	}
	wide := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "a1", 1.0, "d"), resource.NewNode(1, "b1", 0.8, "d"),
		resource.NewNode(2, "a2", 0.5, "d"), resource.NewNode(3, "b2", 0.5, "d"),
		resource.NewNode(4, "a3", 0.33, "d"), resource.NewNode(5, "b3", 0.33, "d"),
		resource.NewNode(6, "a4", 0.25, "d"), resource.NewNode(7, "b4", 0.25, "d"),
	})
	wide.Node(1).MarkDown(0)
	var out []sweepCase
	env := mixedEnv()
	r := rng.New(20261015)
	for _, deadline := range []simtime.Time{11, 14, 20, 30, 45, 80} {
		busy := criticalworks.EmptyCalendars(env)
		for _, c := range busy {
			_ = c.Reserve(simtime.Interval{Start: 0, End: 10}, resource.External)
		}
		for bi, books := range []criticalworks.Calendars{criticalworks.EmptyCalendars(env), busy, book(env, r, 8, deadline+10)} {
			for _, release := range []simtime.Time{0, 3, deadline} {
				out = append(out, sweepCase{fmt.Sprintf("fig2/d%d/books%d/r%d", deadline, bi, release), env, fig2Job(deadline), books, release})
			}
		}
	}
	for seed := uint64(1); seed <= 160; seed++ {
		r := rng.New(seed)
		b := dag.NewBuilder("q").Deadline(simtime.Time(r.IntBetween(5, 90)))
		n := r.IntBetween(1, 7)
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('A' + i))
			b.Task(names[i], simtime.Time(r.IntBetween(1, 5)), int64(r.IntBetween(1, 30)))
		}
		for to := 1; to < n; to++ {
			for from := 0; from < to; from++ {
				if r.Bool(0.35) {
					b.Edge(names[from]+names[to], names[from], names[to], simtime.Time(r.IntBetween(1, 3)), 1)
				}
			}
		}
		job := b.MustBuild()
		e := env
		if seed%2 == 0 {
			e = wide
		}
		books := book(e, r, []int{0, 2, 6, 12}[seed%4], job.Deadline+10)
		out = append(out, sweepCase{fmt.Sprintf("rand/%d", seed), e, job, books, simtime.Time(r.Intn(6))})
	}
	return out
}

// collisionsCounted reads grid_criticalworks_collisions_total: every
// collision a build recorded, on a feasible level or a failed one.
func collisionsCounted(reg *telemetry.Registry) uint64 {
	return reg.Counter("grid_criticalworks_collisions_total", "").Value()
}

// buildsCounted sums grid_criticalworks_builds_total over its outcomes.
func buildsCounted(reg *telemetry.Registry) uint64 {
	var n uint64
	for _, result := range []string{"ok", "hopeless", "infeasible", "cancelled", "error"} {
		n += reg.Counter("grid_criticalworks_builds_total", "", telemetry.L("result", result)).Value()
	}
	return n
}

// TestSweepMatchesEveryLevelBuilt: the level cascade is exact. Over
// sweepCorpus, for every family, both objectives and both collision modes,
// Generate gives the Distributions and FailedLevels of a sweep that builds
// every level (everyLevelBuilt), and the builds record the same collisions,
// with no more Evaluations.
// The corpus must make the cascade refuse levels, and it must spare probes.
func TestSweepMatchesEveryLevelBuilt(t *testing.T) {
	var refusedLevels, builds uint64
	var evals, refEvals int64
	for _, tc := range sweepCorpus() {
		for _, obj := range []criticalworks.Objective{criticalworks.MinFinish, criticalworks.MinCost} {
			for _, mode := range []criticalworks.CollisionMode{criticalworks.ResolveReallocate, criticalworks.ResolveDelay} {
				reg, refReg := telemetry.NewRegistry(), telemetry.NewRegistry()
				g := &Generator{Env: tc.env, Objective: obj, Mode: mode, Telemetry: reg}
				ref := &Generator{Env: tc.env, Objective: obj, Mode: mode, Telemetry: refReg}
				for _, typ := range AllTypes {
					what := fmt.Sprintf("%s %v objective %d mode %d", tc.name, typ, obj, mode)
					got, err := g.Generate(tc.job, typ, tc.books, tc.release)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					want, err := everyLevelBuilt(ref, tc.job, typ, tc.books, tc.release)
					if err != nil {
						t.Fatalf("%s: reference: %v", what, err)
					}
					if !reflect.DeepEqual(got.Distributions, want.Distributions) {
						t.Fatalf("%s: distributions differ:\n got %+v\nwant %+v", what, got.Distributions, want.Distributions)
					}
					if !slices.Equal(got.FailedLevels, want.FailedLevels) {
						t.Fatalf("%s: failed levels %v, want %v", what, got.FailedLevels, want.FailedLevels)
					}
					if got, want := collisionsCounted(reg), collisionsCounted(refReg); got != want {
						t.Fatalf("%s: the builds recorded %d collisions, every level built %d", what, got, want)
					}
					if got.Evaluations > want.Evaluations {
						t.Fatalf("%s: %d evaluations, every level built %d", what, got.Evaluations, want.Evaluations)
					}
					evals, refEvals = evals+got.Evaluations, refEvals+want.Evaluations
				}
				builds += buildsCounted(reg)
				refusedLevels += buildsCounted(refReg) - buildsCounted(reg)
			}
		}
	}
	t.Logf("%d builds, %d levels refused without one; %d evaluations, every level built %d", builds, refusedLevels, evals, refEvals)
	if refusedLevels == 0 || evals >= refEvals {
		t.Errorf("the corpus never exercises the cascade: %d levels refused, %d evaluations against %d", refusedLevels, evals, refEvals)
	}
}

// TestLevelsAscendAndCandidatesNest checks the premise of the level cascade
// and of the sweep's one candidate list: every family's levels strictly
// ascend, and each level's candidates are the previous level's with the
// nodes of lower tier cut out, in the same order — a subset of them, and
// what the sweep's in-place cut leaves — for any environment, pool and set
// of nodes down.
func TestLevelsAscendAndCandidatesNest(t *testing.T) {
	for _, typ := range AllTypes {
		levels := typ.Levels()
		for i := range levels {
			if levels[i] < 1 || levels[i] > resource.NumTiers || i > 0 && levels[i] <= levels[i-1] {
				t.Fatalf("%v levels %v do not strictly ascend within the tiers", typ, levels)
			}
		}
	}
	perfs := []float64{1.0, 0.8, 0.5, 0.33, 0.25}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nodes := make([]*resource.Node, r.IntBetween(1, 12))
		for i := range nodes {
			nodes[i] = resource.NewNode(resource.NodeID(i), fmt.Sprintf("n%d", i), perfs[r.Intn(len(perfs))], "d")
		}
		env := resource.NewEnvironment(nodes)
		for _, n := range nodes {
			if r.Bool(0.2) {
				n.MarkDown(0)
			}
		}
		var pool []resource.NodeID // nil: the whole environment
		if r.Bool(0.5) {
			perm := make([]resource.NodeID, len(nodes)) // a shuffle of the nodes
			for i := range perm {
				j := r.Intn(i + 1)
				perm[i], perm[j] = perm[j], resource.NodeID(i)
			}
			pool = perm[:r.IntBetween(1, len(nodes))]
		}
		g := &Generator{Env: env, Pool: pool}
		for _, typ := range AllTypes {
			levels := typ.Levels()
			prev := *g.candidates(levels[0])
			for _, level := range levels[1:] {
				cut := slices.DeleteFunc(slices.Clone(prev), func(id resource.NodeID) bool { return env.Node(id).Tier() < level })
				got := *g.candidates(level)
				if !slices.Equal(got, cut) {
					t.Logf("seed %d, %v: level %d lists %v, the previous level's cut to it %v", seed, typ, level, got, cut)
					return false
				}
				prev = got
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRegenerateEqualsGenerate: a re-generation — the job round again on
// other books, later — gives exactly what a generation from scratch gives
// there, for every family, while sharing with the previous strategy what
// that one derived from the job alone: the scheduled DAG and the clustering
// are the same values, not equal copies.
func TestRegenerateEqualsGenerate(t *testing.T) {
	env := mixedEnv()
	g := &Generator{Env: env}
	// A pipeline into a fork: S3 has a run to merge and edges to re-draw.
	b := dag.NewBuilder("regen").Deadline(120)
	b.Task("A", 2, 20)
	b.Task("B", 3, 30)
	b.Task("C", 1, 10)
	b.Task("D", 2, 20)
	b.Edge("ab", "A", "B", 1, 10)
	b.Edge("bc", "B", "C", 2, 10)
	b.Edge("bd", "B", "D", 1, 10)
	for _, job := range []*dag.Job{fig2Job(60), b.MustBuild()} {
		for _, typ := range AllTypes {
			prev, err := g.Generate(job, typ, criticalworks.EmptyCalendars(env), 0)
			if err != nil {
				t.Fatal(err)
			}
			// Other books, a later release: the plan itself has to change.
			books := criticalworks.EmptyCalendars(env)
			for id, c := range books {
				if err := c.Reserve(simtime.Interval{Start: 3 + simtime.Time(id), End: 9 + simtime.Time(id)}, resource.External); err != nil {
					t.Fatal(err)
				}
			}
			want, err := g.GenerateCtx(context.Background(), job, typ, books, 2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.RegenerateCtx(context.Background(), prev, books, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got.Scheduled != prev.Scheduled {
				t.Errorf("%s %v: a re-generation derived the job's own facts again", job.Name, typ)
			}
			if reflect.DeepEqual(got.Distributions, prev.Distributions) {
				t.Errorf("%s %v: the re-generation on loaded books repeats the first plan; the comparison below shows nothing", job.Name, typ)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v: re-generation differs from generation:\n got %+v\nwant %+v", job.Name, typ, got, want)
			}
		}
	}
}

// TestGenerateAllocs pins what a generation allocates on the Fig. 2 job over
// mixedEnv, per family: Generate, RegenerateCtx from its result, and
// BuildLevelCtx re-anchoring level 2. Each allocates its strategy and its
// builds' results — schedules, placements, collisions, errors — and nothing
// it only reads while planning: the estimates are read off the job and the
// candidate list is borrowed from candidateBufs. S3's generation also
// coarsens the job into one coarse *dag.Job, which its re-generation shares.
// The budgets are the readings. With an error made by every failed margin
// attempt, not one per failed build, they read 24/24/4 (S1, S2), 33/24/4
// (S3) and 14/14/4 (MS1); with a table derived per generation and
// candidate lists made per generation and per level they read 43/41/8 (S1,
// S2), 54/41/8 (S3) and 31/29/8 (MS1), and S3's Generate read 35 while
// Coarsen also returned a clustering header and per-run member slices. A
// breach means a per-generation table, candidate list or clustering, or an
// error per failed attempt, has come back. Under -race sync.Pool drops Puts on purpose, so the pin skips
// there and runs in CI's step without it.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the pin runs in CI's step without -race")
	}
	env := mixedEnv()
	g := &Generator{Env: env}
	job := fig2Job(60)
	books := criticalworks.EmptyCalendars(env)
	budgets := map[Type]struct{ generate, regenerate, level float64 }{
		S1:  {18, 18, 4},
		S2:  {18, 18, 4},
		S3:  {23, 18, 4},
		MS1: {8, 8, 4},
	}
	for _, typ := range AllTypes {
		prev, err := g.Generate(job, typ, books, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(prev.Distributions) == 0 || len(prev.FailedLevels) == 0 {
			t.Fatalf("%v: the fixture needs built and failed levels, got %d and %v", typ, len(prev.Distributions), prev.FailedLevels)
		}
		ctx := context.Background()
		b := budgets[typ]
		for _, c := range []struct {
			name   string
			budget float64
			run    func()
		}{
			{"Generate", b.generate, func() { _, err = g.Generate(job, typ, books, 0) }},
			{"RegenerateCtx", b.regenerate, func() { _, err = g.RegenerateCtx(ctx, prev, books, 0) }},
			{"BuildLevelCtx", b.level, func() { _, err = g.BuildLevelCtx(ctx, prev.Scheduled, job.Name, typ, 2, books, 0) }},
		} {
			allocs := testing.AllocsPerRun(100, c.run)
			if err != nil {
				t.Fatalf("%v: %s: %v", typ, c.name, err)
			}
			t.Logf("%v: %s allocates %.0f", typ, c.name, allocs)
			if allocs > c.budget {
				t.Errorf("%v: %s allocates %.0f, budget %.0f", typ, c.name, allocs, c.budget)
			}
		}
	}
}
