package batch

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/simtime"
)

func req(id string, nodes int, wall, run simtime.Time) Request {
	return Request{ID: id, Nodes: nodes, Walltime: wall, Runtime: run}
}

func outcomeByID(t *testing.T, outs []Outcome, id string) Outcome {
	t.Helper()
	for _, o := range outs {
		if o.ID == id {
			return o
		}
	}
	t.Fatalf("no outcome for %q in %v", id, outs)
	return Outcome{}
}

func TestFCFSSerializesOnOneNode(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 1, Policy{})
	c.Submit(req("a", 1, 10, 10))
	c.Submit(req("b", 1, 5, 5))
	e.Run()
	outs := c.Outcomes()
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	a, b := outcomeByID(t, outs, "a"), outcomeByID(t, outs, "b")
	if a.Start != 0 || a.End != 10 {
		t.Errorf("a ran [%d,%d)", a.Start, a.End)
	}
	if b.Start != 10 || b.End != 15 {
		t.Errorf("b ran [%d,%d)", b.Start, b.End)
	}
	if b.Wait() != 10 {
		t.Errorf("b wait = %d", b.Wait())
	}
}

func TestParallelJobsShareCluster(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 4, Policy{})
	c.Submit(req("a", 2, 10, 10))
	c.Submit(req("b", 2, 10, 10))
	e.Run()
	a := outcomeByID(t, c.Outcomes(), "a")
	b := outcomeByID(t, c.Outcomes(), "b")
	if a.Start != 0 || b.Start != 0 {
		t.Errorf("both should start at 0: a=%d b=%d", a.Start, b.Start)
	}
}

func TestKilledAtWalltime(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 1, Policy{})
	c.Submit(req("over", 1, 5, 9))
	e.Run()
	o := outcomeByID(t, c.Outcomes(), "over")
	if !o.Killed || o.End != 5 {
		t.Errorf("outcome = %+v, want killed at 5", o)
	}
}

func TestEarlyCompletionFreesNodes(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 1, Policy{})
	c.Submit(req("a", 1, 10, 3)) // finishes well before walltime
	c.Submit(req("b", 1, 5, 5))
	e.Run()
	b := outcomeByID(t, c.Outcomes(), "b")
	if b.Start != 3 {
		t.Errorf("b started %d, want 3 (right after a's early exit)", b.Start)
	}
}

func TestEasyBackfillsShortJob(t *testing.T) {
	run := func(p Policy) (simtime.Time, simtime.Time) {
		e := sim.New()
		c := NewCluster(e, 4, p)
		c.Submit(req("big", 3, 10, 10))  // leaves one node idle
		c.Submit(req("head", 4, 10, 10)) // blocked head
		c.Submit(req("small", 1, 2, 2))  // fits the idle node
		e.Run()
		return outcomeByID(t, c.Outcomes(), "small").Start, outcomeByID(t, c.Outcomes(), "head").Start
	}
	fcfsSmall, fcfsHead := run(Policy{})
	easySmall, easyHead := run(Policy{Backfill: EasyBackfill})
	if fcfsSmall != 20 {
		t.Errorf("FCFS small start = %d, want 20 (behind head)", fcfsSmall)
	}
	if easySmall != 0 {
		t.Errorf("EASY small start = %d, want 0 (backfilled)", easySmall)
	}
	if easyHead != fcfsHead {
		t.Errorf("backfilling delayed the head: %d vs %d", easyHead, fcfsHead)
	}
}

func TestEasyRefusesDelayingHead(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 4, Policy{Backfill: EasyBackfill})
	c.Submit(req("big", 3, 10, 10))
	c.Submit(req("head", 4, 10, 10))
	c.Submit(req("long", 1, 50, 50)) // would push the head past its shadow
	e.Run()
	long := outcomeByID(t, c.Outcomes(), "long")
	head := outcomeByID(t, c.Outcomes(), "head")
	if head.Start != 10 {
		t.Errorf("head start = %d, want 10", head.Start)
	}
	if long.Start < head.Start {
		t.Errorf("long backfilled at %d, delaying head", long.Start)
	}
}

func TestConservativeBackfill(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 4, Policy{Backfill: ConservativeBackfill})
	c.Submit(req("big", 3, 10, 10))
	c.Submit(req("head", 4, 10, 10))
	c.Submit(req("small", 1, 2, 2))
	e.Run()
	small := outcomeByID(t, c.Outcomes(), "small")
	head := outcomeByID(t, c.Outcomes(), "head")
	if small.Start != 0 {
		t.Errorf("small start = %d, want 0", small.Start)
	}
	if head.Start != 10 {
		t.Errorf("head start = %d, want 10", head.Start)
	}
}

func TestLWFReordersQueue(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 1, Policy{Discipline: LWF})
	c.Submit(req("runner", 1, 10, 10)) // starts immediately
	c.Submit(req("big", 1, 50, 50))
	c.Submit(req("small", 1, 2, 2))
	e.Run()
	small := outcomeByID(t, c.Outcomes(), "small")
	big := outcomeByID(t, c.Outcomes(), "big")
	if small.Start != 10 {
		t.Errorf("small start = %d, want 10 (jumped ahead)", small.Start)
	}
	if big.Start != 12 {
		t.Errorf("big start = %d, want 12", big.Start)
	}
}

func TestReservationBlocksQueue(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 2, Policy{})
	if !c.SubmitReservation(req("res", 2, 10, 10), 5) {
		t.Fatal("reservation rejected")
	}
	c.Submit(req("j", 2, 8, 8)) // would overlap [5,15): must wait until 15
	e.Run()
	j := outcomeByID(t, c.Outcomes(), "j")
	if j.Start != 15 {
		t.Errorf("job start = %d, want 15 (after the reservation)", j.Start)
	}
	res := outcomeByID(t, c.Outcomes(), "res")
	if res.Start != 5 || !res.Reserved {
		t.Errorf("reservation outcome = %+v", res)
	}
}

func TestShortJobSlipsBeforeReservation(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 2, Policy{})
	if !c.SubmitReservation(req("res", 2, 10, 10), 5) {
		t.Fatal("reservation rejected")
	}
	c.Submit(req("quick", 2, 5, 5)) // fits exactly in [0,5)
	e.Run()
	quick := outcomeByID(t, c.Outcomes(), "quick")
	if quick.Start != 0 {
		t.Errorf("quick start = %d, want 0", quick.Start)
	}
}

func TestConflictingReservationRejected(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 2, Policy{})
	if !c.SubmitReservation(req("r1", 2, 10, 10), 5) {
		t.Fatal("first reservation rejected")
	}
	if c.SubmitReservation(req("r2", 1, 10, 10), 8) {
		t.Error("overlapping reservation accepted beyond capacity")
	}
	if !c.SubmitReservation(req("r3", 2, 5, 5), 15) {
		t.Error("non-overlapping reservation rejected")
	}
	e.Run()
}

func TestPastReservationRejected(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 2, Policy{})
	e.At(10, "try", func() {
		if c.SubmitReservation(req("r", 1, 5, 5), 3) {
			t.Error("reservation in the past accepted")
		}
	})
	e.Run()
}

func TestForecastExactWhenRuntimesMatchWalltimes(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 1, Policy{})
	for i := 0; i < 5; i++ {
		c.Submit(req(fmt.Sprintf("j%d", i), 1, 10, 10))
	}
	e.Run()
	for _, o := range c.Outcomes() {
		if o.ForecastError() != 0 {
			t.Errorf("%s forecast error = %d with exact runtimes", o.ID, o.ForecastError())
		}
	}
}

func TestForecastErrorWithEarlyCompletions(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 1, Policy{})
	c.Submit(req("a", 1, 10, 4))
	c.Submit(req("b", 1, 10, 10))
	e.Run()
	b := outcomeByID(t, c.Outcomes(), "b")
	if b.ForecastStart != 10 || b.Start != 4 {
		t.Errorf("b forecast %d, start %d; want 10 and 4", b.ForecastStart, b.Start)
	}
	if b.ForecastError() != 6 {
		t.Errorf("forecast error = %d", b.ForecastError())
	}
}

func TestPolicyNames(t *testing.T) {
	tests := []struct {
		p    Policy
		want string
	}{
		{Policy{}, "FCFS"},
		{Policy{Discipline: LWF}, "LWF"},
		{Policy{Backfill: EasyBackfill}, "FCFS+easy-backfill"},
		{Policy{Discipline: LWF, Backfill: ConservativeBackfill}, "LWF+conservative-backfill"},
	}
	for _, tt := range tests {
		if got := tt.p.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	e := sim.New()
	c := NewCluster(e, 2, Policy{})
	for _, bad := range []Request{
		req("too-big", 3, 5, 5),
		req("zero-nodes", 0, 5, 5),
		req("zero-wall", 1, 0, 5),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("request %q accepted", bad.ID)
				}
			}()
			c.Submit(bad)
		}()
	}
}

func TestGangTimeSlices(t *testing.T) {
	e := sim.New()
	g := NewGang(e, 1, 5)
	g.Submit(req("a", 1, 10, 10))
	g.Submit(req("b", 1, 10, 10))
	e.Run()
	a := outcomeByID(t, g.Outcomes(), "a")
	b := outcomeByID(t, g.Outcomes(), "b")
	if a.Start != 0 || a.End != 15 {
		t.Errorf("a = [%d,%d), want [0,15)", a.Start, a.End)
	}
	if b.Start != 5 || b.End != 20 {
		t.Errorf("b = [%d,%d), want [5,20)", b.Start, b.End)
	}
}

func TestGangPacksSameSlot(t *testing.T) {
	e := sim.New()
	g := NewGang(e, 2, 5)
	g.Submit(req("a", 1, 10, 10))
	g.Submit(req("b", 1, 10, 10))
	if g.SlotCount() != 1 {
		t.Fatalf("slots = %d, want 1 (both fit the machine)", g.SlotCount())
	}
	e.Run()
	for _, id := range []string{"a", "b"} {
		o := outcomeByID(t, g.Outcomes(), id)
		if o.Start != 0 || o.End != 10 {
			t.Errorf("%s = [%d,%d), want [0,10)", id, o.Start, o.End)
		}
	}
}

func TestGangMidQuantumCompletion(t *testing.T) {
	e := sim.New()
	g := NewGang(e, 1, 5)
	g.Submit(req("a", 1, 7, 7))
	e.Run()
	a := outcomeByID(t, g.Outcomes(), "a")
	if a.End != 7 {
		t.Errorf("a ends %d, want 7 (mid-quantum)", a.End)
	}
}

func TestGangIdleThenResume(t *testing.T) {
	e := sim.New()
	g := NewGang(e, 1, 5)
	g.Submit(req("a", 1, 5, 5))
	e.At(100, "late", func() { g.Submit(req("b", 1, 5, 5)) })
	e.Run()
	b := outcomeByID(t, g.Outcomes(), "b")
	if b.Start != 100 || b.End != 105 {
		t.Errorf("b = [%d,%d), want [100,105)", b.Start, b.End)
	}
}

// capacityRespected verifies that actual executions never exceed the
// cluster size at any instant.
func capacityRespected(outs []Outcome, capacity int) bool {
	var points []simtime.Time
	for _, o := range outs {
		points = append(points, o.Start)
	}
	for _, t := range points {
		used := 0
		for _, o := range outs {
			if o.Start <= t && t < o.End {
				used += o.Nodes
			}
		}
		if used > capacity {
			return false
		}
	}
	return true
}

func randomStream(r *rng.Source, n, maxNodes int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		wall := simtime.Time(r.IntBetween(2, 30))
		run := simtime.Time(float64(wall) * r.Float64Between(0.3, 1.0))
		if run < 1 {
			run = 1
		}
		reqs[i] = Request{
			ID:       fmt.Sprintf("j%d", i),
			Nodes:    r.IntBetween(1, maxNodes),
			Walltime: wall,
			Runtime:  run,
		}
	}
	return reqs
}

func runStream(policy Policy, capacity int, reqs []Request, gap simtime.Time) []Outcome {
	e := sim.New()
	c := NewCluster(e, capacity, policy)
	for i, r := range reqs {
		r := r
		e.At(simtime.Time(i)*gap, "submit", func() { c.Submit(r) })
	}
	e.Run()
	return c.Outcomes()
}

func meanWait(outs []Outcome) float64 {
	var sum float64
	for _, o := range outs {
		sum += float64(o.Wait())
	}
	return sum / float64(len(outs))
}

func TestBackfillingReducesMeanWait(t *testing.T) {
	// §5: "Backfilling decreases this [queue waiting] time."
	reqs := randomStream(rng.New(7), 200, 8)
	fcfs := runStream(Policy{}, 8, reqs, 2)
	easy := runStream(Policy{Backfill: EasyBackfill}, 8, reqs, 2)
	if len(fcfs) != 200 || len(easy) != 200 {
		t.Fatalf("lost jobs: %d, %d", len(fcfs), len(easy))
	}
	if meanWait(easy) >= meanWait(fcfs) {
		t.Errorf("easy mean wait %.2f not below FCFS %.2f", meanWait(easy), meanWait(fcfs))
	}
}

func TestQuickCapacityNeverExceeded(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		capacity := r.IntBetween(1, 8)
		reqs := randomStream(r, 40, capacity)
		policy := Policy{
			Discipline: Discipline(r.Intn(2)),
			Backfill:   Backfill(r.Intn(3)),
		}
		outs := runStream(policy, capacity, reqs, simtime.Time(r.IntBetween(1, 5)))
		if len(outs) != len(reqs) {
			return false // every job must eventually run
		}
		for _, o := range outs {
			if o.Start < o.Arrival || o.End <= o.Start {
				return false
			}
		}
		return capacityRespected(outs, capacity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickGangCompletesEverything(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		capacity := r.IntBetween(1, 6)
		e := sim.New()
		g := NewGang(e, capacity, simtime.Time(r.IntBetween(1, 7)))
		n := r.IntBetween(1, 30)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("j%d", i)
			nodes := r.IntBetween(1, capacity)
			run := simtime.Time(r.IntBetween(1, 25))
			at := simtime.Time(r.Intn(50))
			e.At(at, "submit", func() {
				g.Submit(Request{ID: id, Nodes: nodes, Walltime: run, Runtime: run})
			})
		}
		e.Run()
		outs := g.Outcomes()
		if len(outs) != n {
			return false
		}
		for _, o := range outs {
			// A gang job can never finish before its runtime has elapsed
			// since first start.
			if o.End < o.Start+o.Runtime || o.Start < o.Arrival {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickFCFSRespectsArrivalOrderOnUniformJobs(t *testing.T) {
	// With identical node demands and no backfilling, FCFS must start jobs
	// in arrival order.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		e := sim.New()
		c := NewCluster(e, 2, Policy{})
		n := r.IntBetween(2, 20)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("j%d", i)
			wall := simtime.Time(r.IntBetween(1, 12))
			e.At(simtime.Time(i), "submit", func() {
				c.Submit(Request{ID: id, Nodes: 1, Walltime: wall, Runtime: wall})
			})
		}
		e.Run()
		outs := c.Outcomes()
		starts := map[string]simtime.Time{}
		for _, o := range outs {
			starts[o.ID] = o.Start
		}
		for i := 1; i < n; i++ {
			if starts[fmt.Sprintf("j%d", i)] < starts[fmt.Sprintf("j%d", i-1)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
