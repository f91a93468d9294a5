package metasched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// placerOpts is one deterministic VO run: `jobs` corpus jobs submitted in
// same-tick groups of `group` (one arrival batch each when placers > 1),
// priorities cycling 0..2, deadlines re-anchored at each group's tick.
// stretch scales the corpus deadlines (1 keeps the generator's default).
// Every `doomEvery`-th job (0 disables) instead gets a 1-tick deadline no
// schedule can meet, pinning the rejection path.
type placerOpts struct {
	seed      uint64
	placers   int
	domains   int
	jobs      int
	group     int
	gap       simtime.Time
	stretch   float64
	doomEvery int
	cfg       func(*Config) // extra hooks; Seed and Placers are already set
}

// run drives the scenario to quiescence and returns the VO.
func (o placerOpts) run() *VO {
	e := sim.New()
	wcfg := workload.Default(o.seed)
	wcfg.DeadlineFactor *= o.stretch
	gen := workload.New(wcfg)
	env := gen.Environment(o.domains)
	cfg := Config{Seed: o.seed, Placers: o.placers}
	if o.cfg != nil {
		o.cfg(&cfg)
	}
	vo := NewVO(e, env, cfg)
	for i := 0; i < o.jobs; i++ {
		j := gen.Job(i)
		at := simtime.Time(i/o.group) * o.gap
		if o.doomEvery > 0 && i%o.doomEvery == o.doomEvery-1 {
			j = j.WithDeadline(at + 1) // infeasible whatever the contention
		} else {
			j = j.WithDeadline(at + j.Deadline)
		}
		if err := vo.SubmitPrio(j, strategy.S1, at, i%3); err != nil {
			panic(err)
		}
	}
	e.Run()
	return vo
}

// placerRun is the three-domain scenario; it returns the terminal results
// in finalization order.
func placerRun(seed uint64, placers, jobs, group int, gap simtime.Time, stretch float64, doomEvery int) []*JobResult {
	return placerOpts{seed: seed, placers: placers, domains: 3, jobs: jobs, group: group,
		gap: gap, stretch: stretch, doomEvery: doomEvery}.run().Results()
}

// TestPlacerDifferentialEquivalence pins what batching may and may not
// change, for five seeds. Placers 1 and 8 batch differently by design
// (singleton events against one batch per tick, placed in the arbiter's
// order), so between them only the ordering-independent comparison holds:
// the batches contend (some member is reallocated), every job meets the same
// fate and the completed/rejected totals are identical.
func TestPlacerDifferentialEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const jobs, group = 36, 6
			seq := placerRun(seed, 1, jobs, group, 150, 3, 9)
			con := placerRun(seed, 8, jobs, group, 150, 3, 9)
			if len(seq) != jobs || len(con) != jobs {
				t.Fatalf("results: width 1 %d, batched %d, want %d", len(seq), len(con), jobs)
			}
			moved := 0
			for _, r := range con {
				moved += r.Reallocations
			}
			if moved == 0 {
				t.Fatal("no batched member was reallocated: the batches no longer contend")
			}
			states := func(rs []*JobResult) (map[string]State, int, int) {
				byName := make(map[string]State, len(rs))
				completed, rejected := 0, 0
				for _, r := range rs {
					byName[r.Job.Name] = r.State
					switch r.State {
					case StateCompleted:
						completed++
					case StateRejected:
						rejected++
					default:
						t.Fatalf("%s: non-terminal state %v", r.Job.Name, r.State)
					}
				}
				return byName, completed, rejected
			}
			sA, compA, rejA := states(seq)
			sB, compB, rejB := states(con)
			for name, st := range sA {
				if sB[name] != st {
					t.Errorf("%s: placers=1 %v, placers=8 %v", name, st, sB[name])
				}
			}
			if compA != compB || rejA != rejB {
				t.Errorf("totals: placers=1 completed=%d rejected=%d, placers=8 completed=%d rejected=%d",
					compA, rejA, compB, rejB)
			}
		})
	}
}

// TestPlacerPriorityPlansFirst pins the arbiter's order at build time: of
// two identical jobs in one same-tick batch, the priority-2 job submitted
// last gets the window the priority-0 job submitted first also wanted — the
// one either of them gets when it arrives alone.
func TestPlacerPriorityPlansFirst(t *testing.T) {
	place := func(placers int, names ...string) map[string]criticalworks.Placement {
		e := sim.New()
		env := resource.NewEnvironment([]*resource.Node{
			resource.NewNode(0, "fast", 1.0, "dom"),
			resource.NewNode(1, "slow", 0.27, "dom"),
		})
		vo := NewVO(e, env, Config{Placers: placers})
		for i, name := range names {
			b := dag.NewBuilder(name).Deadline(200)
			b.Task("T", 4, 16)
			if err := vo.SubmitPrio(b.MustBuild(), strategy.S1, 5, 2*i); err != nil {
				t.Fatal(err)
			}
		}
		e.Run()
		out := map[string]criticalworks.Placement{}
		for _, r := range vo.Results() {
			if r.State != StateCompleted || len(r.Placements) != 1 {
				t.Fatalf("%s: %v with %d placements", r.Job.Name, r.State, len(r.Placements))
			}
			for _, p := range r.Placements {
				out[r.Job.Name] = p
			}
		}
		return out
	}
	wanted := place(2, "alone")["alone"]
	got := place(2, "first-prio0", "last-prio2")
	if p := got["last-prio2"]; p.Node != wanted.Node || p.Window != wanted.Window {
		t.Errorf("the priority-2 job got node %d %v, want the contested node %d %v", p.Node, p.Window, wanted.Node, wanted.Window)
	}
	if p := got["first-prio0"]; p.Node == wanted.Node && p.Window.Overlaps(wanted.Window) {
		t.Errorf("the priority-0 job holds node %d %v, which overlaps the window the priority-2 job was given", p.Node, p.Window)
	}
	// One at a time in submission order, the first job takes it instead.
	if p := place(1, "first-prio0", "last-prio2")["first-prio0"]; p.Node != wanted.Node || p.Window != wanted.Window {
		t.Errorf("at width 1 the first submission got node %d %v, want node %d %v", p.Node, p.Window, wanted.Node, wanted.Window)
	}
}

// TestPlacerSingletonBatchesMatchSequential pins the byte-identical
// guarantee from the other side: when every arrival batch holds exactly
// one job, the placers>1 configuration must reproduce the single-writer
// run in full — same results in the same order with the same plans.
func TestPlacerSingletonBatchesMatchSequential(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		a := placerRun(seed, 1, 18, 1, 40, 1, 0)
		b := placerRun(seed, 4, 18, 1, 40, 1, 0)
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d vs %d results", seed, len(a), len(b))
		}
		for i := range a {
			x, y := a[i], b[i]
			if x.Job.Name != y.Job.Name || x.State != y.State || x.Finish != y.Finish ||
				x.Cost != y.Cost || x.Domain != y.Domain ||
				x.PlannedStart != y.PlannedStart || x.ActualStart != y.ActualStart ||
				!reflect.DeepEqual(x.Placements, y.Placements) {
				t.Fatalf("seed %d: result %d diverged:\nplacers=1: %+v\nplacers=4: %+v", seed, i, x, y)
			}
		}
	}
}

// TestPlacerDeterministicAcrossRuns: at a fixed batch width, a whole run is
// a pure function of the seed.
func TestPlacerDeterministicAcrossRuns(t *testing.T) {
	a := placerRun(3, 8, 36, 6, 150, 1, 0)
	b := placerRun(3, 8, 36, 6, 150, 1, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical placers=8 runs diverged")
	}
}

// TestPlacerCompletedPlacementsNeverOverlap re-checks the live books'
// invariant under batching: completed jobs' reservations are pairwise
// disjoint per node — no batch member double-booked a window.
func TestPlacerCompletedPlacementsNeverOverlap(t *testing.T) {
	results := placerRun(9, 8, 36, 9, 120, 1, 0)
	type win struct {
		iv  simtime.Interval
		job string
	}
	byNode := map[resource.NodeID][]win{}
	for _, r := range results {
		if r.State != StateCompleted {
			continue
		}
		for _, p := range r.Placements {
			byNode[p.Node] = append(byNode[p.Node], win{p.Window, r.Job.Name})
		}
	}
	for node, wins := range byNode {
		for i := 0; i < len(wins); i++ {
			for j := i + 1; j < len(wins); j++ {
				if wins[i].iv.Overlaps(wins[j].iv) {
					t.Errorf("node %d: %s %v overlaps %s %v",
						node, wins[i].job, wins[i].iv, wins[j].job, wins[j].iv)
				}
			}
		}
	}
}
