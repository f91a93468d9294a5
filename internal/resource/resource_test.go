package resource

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/simtime"
)

func TestGroupOf(t *testing.T) {
	tests := []struct {
		perf float64
		want Group
	}{
		{1.0, GroupFast},
		{0.80, GroupFast},
		{0.67, GroupFast},
		{0.66, GroupMedium},
		{0.50, GroupMedium},
		{0.35, GroupMedium},
		{0.33, GroupSlow},
		{0.10, GroupSlow},
	}
	for _, tt := range tests {
		if got := GroupOf(tt.perf); got != tt.want {
			t.Errorf("GroupOf(%v) = %v, want %v", tt.perf, got, tt.want)
		}
	}
}

func TestGroupString(t *testing.T) {
	if GroupFast.String() != "fast" || GroupSlow.String() != "slow" || GroupMedium.String() != "medium" {
		t.Error("group names diverge from the paper's terms")
	}
}

func TestTierOf(t *testing.T) {
	tests := []struct {
		perf float64
		want Tier
	}{
		{1.0, 1},
		{0.9, 1},
		{0.5, 2},
		{0.45, 2},
		{0.33, 3},
		{0.25, 4},
		{0.1, 4}, // clamped
		{0, 4},
	}
	for _, tt := range tests {
		if got := TierOf(tt.perf); got != tt.want {
			t.Errorf("TierOf(%v) = %d, want %d", tt.perf, got, tt.want)
		}
	}
}

func TestEstimateMatchesPaperTable(t *testing.T) {
	// §3's table: Ti1 = {2,3,1,2,1,2}, Ti2 = 2×, Ti3 = 3×, Ti4 = 4×.
	for i, t1 := range []simtime.Time{2, 3, 1, 2, 1, 2} {
		for k := Tier(1); k <= NumTiers; k++ {
			if got, want := Estimate(t1, k), t1*simtime.Time(k); got != want {
				t.Errorf("T_%d%d = %d, want %d", i+1, k, got, want)
			}
		}
	}
}

// TestEstimateOnNodeTier: a node's estimate is its tier's, whatever its
// exact performance.
func TestEstimateOnNodeTier(t *testing.T) {
	fast := NewNode(0, "f", 1.0, "d")
	slow := NewNode(1, "s", 0.33, "d")
	if got := Estimate(2, fast.Tier()); got != 2 {
		t.Errorf("fast estimate = %d, want 2", got)
	}
	if got := Estimate(2, slow.Tier()); got != 6 { // tier 3 → 3×2
		t.Errorf("slow estimate = %d, want 6", got)
	}
}

func TestQuickEstimateMonotone(t *testing.T) {
	// For any base time, estimates are positive and non-decreasing in tier,
	// and the tier-1 estimate equals the base.
	f := func(base uint16) bool {
		bt := simtime.Time(base%500) + 1
		if Estimate(bt, 1) != bt {
			return false
		}
		for k := Tier(2); k <= NumTiers; k++ {
			if Estimate(bt, k) < Estimate(bt, k-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewNodePanicsOnBadPerf(t *testing.T) {
	for _, perf := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewNode with perf %v did not panic", perf)
				}
			}()
			NewNode(0, "bad", perf, "d")
		}()
	}
}

func newEnv() *Environment {
	return NewEnvironment([]*Node{
		NewNode(0, "f1", 1.0, "alpha"),
		NewNode(1, "f2", 0.8, "alpha"),
		NewNode(2, "m1", 0.5, "beta"),
		NewNode(3, "s1", 0.33, "beta"),
	})
}

func TestEnvironmentQueries(t *testing.T) {
	e := newEnv()
	if e.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", e.NumNodes())
	}
	if got := e.ByDomain("beta"); len(got) != 2 {
		t.Errorf("beta nodes = %d, want 2", len(got))
	}
	doms := e.Domains()
	if len(doms) != 2 || doms[0] != "alpha" || doms[1] != "beta" {
		t.Errorf("Domains = %v", doms)
	}
}

func TestEnvironmentIDCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-dense IDs accepted")
		}
	}()
	NewEnvironment([]*Node{NewNode(5, "x", 1, "d")})
}

func TestCalendarReserveAndConflict(t *testing.T) {
	c := NewCalendar()
	ow := Owner{Job: "j1", Task: "t1"}
	if err := c.Reserve(simtime.Interval{Start: 10, End: 20}, ow); err != nil {
		t.Fatal(err)
	}
	err := c.Reserve(simtime.Interval{Start: 15, End: 25}, Owner{Job: "j2"})
	var conflict *ErrConflict
	if !errors.As(err, &conflict) {
		t.Fatalf("overlap accepted: %v", err)
	}
	if conflict.Existing.Owner != ow {
		t.Errorf("conflict owner = %+v", conflict.Existing.Owner)
	}
	// Touching windows are fine (half-open).
	if err := c.Reserve(simtime.Interval{Start: 20, End: 30}, ow); err != nil {
		t.Errorf("adjacent reservation rejected: %v", err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCalendarRejectsEmpty(t *testing.T) {
	c := NewCalendar()
	if err := c.Reserve(simtime.Interval{Start: 5, End: 5}, Owner{}); err == nil {
		t.Error("empty reservation accepted")
	}
}

func TestCalendarRelease(t *testing.T) {
	c := NewCalendar()
	ow := Owner{Job: "j", Task: "a"}
	iv := simtime.Interval{Start: 0, End: 10}
	if err := c.Reserve(iv, ow); err != nil {
		t.Fatal(err)
	}
	if c.Release(iv, Owner{Job: "j", Task: "b"}) {
		t.Error("released with wrong owner")
	}
	if !c.Release(iv, ow) {
		t.Error("release failed")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after release", c.Len())
	}
}

func TestCalendarReleaseJobAndOwner(t *testing.T) {
	c := NewCalendar()
	mk := func(s, e simtime.Time, job, task string) {
		t.Helper()
		if err := c.Reserve(simtime.Interval{Start: s, End: e}, Owner{Job: job, Task: task}); err != nil {
			t.Fatal(err)
		}
	}
	mk(0, 5, "j1", "a")
	mk(5, 10, "j1", "b")
	mk(10, 15, "j2", "a")
	if got := c.ReleaseJob("j1"); got != 2 {
		t.Errorf("ReleaseJob removed %d", got)
	}
	if c.Len() != 1 || c.Reservations()[0].Owner.Job != "j2" {
		t.Errorf("remaining = %v", c.Reservations())
	}
}

func TestCalendarFirstFree(t *testing.T) {
	c := NewCalendar()
	must := func(s, e simtime.Time) {
		t.Helper()
		if err := c.Reserve(simtime.Interval{Start: s, End: e}, Owner{Job: "bg"}); err != nil {
			t.Fatal(err)
		}
	}
	must(10, 20)
	must(25, 30)
	tests := []struct {
		earliest, length simtime.Time
		want             simtime.Time
		ok               bool
	}{
		{0, 10, 0, true},
		{0, 11, 30, true}, // gap [0,10) too small, [20,25) too small
		{5, 5, 5, true},
		{5, 6, 30, true},
		{12, 5, 20, true},
		{12, 6, 30, true},
		{0, 100, 30, true},
	}
	for _, tt := range tests {
		got, ok := c.FirstFree(tt.earliest, tt.length, 1000)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("FirstFree(%d,%d) = (%d,%v), want (%d,%v)",
				tt.earliest, tt.length, got, ok, tt.want, tt.ok)
		}
	}
	if _, ok := c.FirstFree(0, 11, 35); ok {
		t.Error("FirstFree ignored horizon")
	}
	if _, ok := c.FirstFree(0, 0, 100); ok {
		t.Error("FirstFree accepted zero length")
	}
}

func TestCalendarUtilization(t *testing.T) {
	c := NewCalendar()
	if err := c.Reserve(simtime.Interval{Start: 0, End: 25}, Owner{}); err != nil {
		t.Fatal(err)
	}
	if got := c.BusyIn(simtime.Interval{Start: 20, End: 30}); got != 5 {
		t.Errorf("BusyIn = %d, want 5", got)
	}
}

func TestCalendarCloneIsolated(t *testing.T) {
	c := NewCalendar()
	if err := c.Reserve(simtime.Interval{Start: 0, End: 10}, Owner{Job: "j"}); err != nil {
		t.Fatal(err)
	}
	cp := c.Clone()
	if err := cp.Reserve(simtime.Interval{Start: 10, End: 20}, Owner{Job: "k"}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || cp.Len() != 2 {
		t.Errorf("clone not isolated: orig %d, clone %d", c.Len(), cp.Len())
	}
}

// TestCalendarCloneWithRoom pins Clone: the copy is the same book — same
// reservations, same generation — at exact capacity (snapshots mostly stay
// unwritten and must not pay for room), and it shares nothing with its
// source: mutate the source after cloning, then the clone, and both must
// keep answering like the linear reference.
func TestCalendarCloneWithRoom(t *testing.T) {
	c, ref := NewCalendar(), &refCalendar{}
	for k := 0; k < 40; k++ {
		start := simtime.Time(10 * k)
		iv := simtime.Interval{Start: start, End: start + 5}
		if err := c.Reserve(iv, Owner{Job: "bg"}); err != nil {
			t.Fatal(err)
		}
		if err := ref.Reserve(iv, Owner{Job: "bg"}); err != nil {
			t.Fatal(err)
		}
	}
	probes := []simtime.Time{0, 3, 95, 200, 399, 1000}
	cp, cpRef := c.Clone(), ref.Clone()
	if cp.Gen() != c.Gen() || !reflect.DeepEqual(cp.res, c.res) {
		t.Fatal("clone is not a copy of its source")
	}
	if cap(cp.res) != len(c.res) {
		t.Errorf("clone capacity %d, want exactly %d", cap(cp.res), len(c.res))
	}
	compareCalendars(t, 0, cp, cpRef, probes)

	// Mutate the source; the clone must not notice.
	iv, o := simtime.Interval{Start: 5, End: 10}, Owner{Job: "src"}
	if err := c.Reserve(iv, o); err != nil {
		t.Fatal(err)
	}
	if err := ref.Reserve(iv, o); err != nil {
		t.Fatal(err)
	}
	compareCalendars(t, 1, c, ref, probes)
	compareCalendars(t, 1, cp, cpRef, probes)

	// Then the clone, the same way.
	iv, o = simtime.Interval{Start: 15, End: 20}, Owner{Job: "cp"}
	if err := cp.Reserve(iv, o); err != nil {
		t.Fatal(err)
	}
	if err := cpRef.Reserve(iv, o); err != nil {
		t.Fatal(err)
	}
	compareCalendars(t, 2, cp, cpRef, probes)
	compareCalendars(t, 2, c, ref, probes)

	if c.Len() != cp.Len() || c.Gen() != cp.Gen() || reflect.DeepEqual(c.res, cp.res) {
		t.Errorf("clone not isolated: source %d (gen %d), clone %d (gen %d)", c.Len(), c.Gen(), cp.Len(), cp.Gen())
	}
}

func TestCalendarPruneBefore(t *testing.T) {
	c := NewCalendar()
	mk := func(s, e simtime.Time) {
		t.Helper()
		if err := c.Reserve(simtime.Interval{Start: s, End: e}, Owner{Job: "j"}); err != nil {
			t.Fatal(err)
		}
	}
	mk(0, 5)
	mk(5, 50) // long window starting early, still live at t=20
	mk(60, 70)
	if got := c.PruneBefore(20); got != 1 {
		t.Errorf("removed %d, want 1 (only [0,5))", got)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	// The long window straddling t must survive.
	if free := c.Free(simtime.Interval{Start: 20, End: 25}); free {
		t.Error("straddling reservation was pruned")
	}
	if got := c.PruneBefore(1000); got != 2 || c.Len() != 0 {
		t.Errorf("final prune removed %d, len %d", got, c.Len())
	}
	if got := c.PruneBefore(1000); got != 0 {
		t.Errorf("idempotent prune removed %d", got)
	}
}

func TestQuickCalendarNeverOverlaps(t *testing.T) {
	// Any sequence of Reserve attempts leaves a pairwise-disjoint calendar,
	// and accepted reservations exactly match a reference occupancy bitmap.
	f := func(seed uint64, nOps uint8) bool {
		r := rng.New(seed)
		c := NewCalendar()
		var ref [128]bool
		for op := 0; op < int(nOps%40)+5; op++ {
			s := simtime.Time(r.Intn(120))
			l := simtime.Time(r.IntBetween(1, 8))
			iv := simtime.Interval{Start: s, End: s + l}
			overlap := false
			for p := iv.Start; p < iv.End; p++ {
				if ref[p] {
					overlap = true
				}
			}
			err := c.Reserve(iv, Owner{Job: "j", Task: "t"})
			if overlap && err == nil {
				return false // accepted a conflicting window
			}
			if !overlap && err != nil {
				return false // rejected a free window
			}
			if err == nil {
				for p := iv.Start; p < iv.End; p++ {
					ref[p] = true
				}
			}
		}
		res := c.Reservations()
		for i := 1; i < len(res); i++ {
			if res[i-1].Interval.Overlaps(res[i].Interval) || res[i-1].Interval.Start > res[i].Interval.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickFirstFreeIsFreeAndEarliest(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := NewCalendar()
		for i := 0; i < 10; i++ {
			s := simtime.Time(r.Intn(100))
			iv := simtime.Interval{Start: s, End: s + simtime.Time(r.IntBetween(1, 6))}
			_ = c.Reserve(iv, Owner{Job: "bg"}) // conflicts allowed to fail
		}
		earliest := simtime.Time(r.Intn(50))
		length := simtime.Time(r.IntBetween(1, 10))
		got, ok := c.FirstFree(earliest, length, 500)
		if !ok {
			return false // horizon 500 always has room
		}
		if got < earliest {
			return false
		}
		if !c.Free(simtime.Interval{Start: got, End: got + length}) {
			return false
		}
		// No earlier feasible start: check every candidate in [earliest, got).
		for cand := earliest; cand < got; cand++ {
			if c.Free(simtime.Interval{Start: cand, End: cand + length}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGenMonotonicAndBumpedExactlyOnMutation(t *testing.T) {
	r := rng.New(7)
	c := NewCalendar()
	var held []Reservation
	for step := 0; step < 2000; step++ {
		before := c.Gen()
		mutated := false
		switch r.Intn(5) {
		case 0, 1: // Reserve
			start := simtime.Time(r.Int64n(200))
			iv := simtime.Interval{Start: start, End: start + simtime.Time(r.Int64n(20))}
			owner := Owner{Job: fmt.Sprintf("j%d", r.Intn(8))}
			if err := c.Reserve(iv, owner); err == nil {
				mutated = true
				held = append(held, Reservation{Interval: iv, Owner: owner})
			}
		case 2: // Release a held reservation (or a miss)
			if len(held) > 0 && r.Bool(0.7) {
				i := r.Intn(len(held))
				if c.Release(held[i].Interval, held[i].Owner) {
					mutated = true
					held = append(held[:i], held[i+1:]...)
				}
			} else if c.Release(simtime.Interval{Start: 9999, End: 10000}, Owner{Job: "nobody"}) {
				t.Fatal("released a reservation that was never made")
			}
		case 3: // PruneBefore
			if c.PruneBefore(simtime.Time(r.Int64n(100))) > 0 {
				mutated = true
				held = held[:0]
				held = append(held, c.Reservations()...)
			}
		case 4: // ReleaseJob
			if c.ReleaseJob(fmt.Sprintf("j%d", r.Intn(8))) > 0 {
				mutated = true
				held = held[:0]
				held = append(held, c.Reservations()...)
			}
		}
		after := c.Gen()
		if after < before {
			t.Fatalf("step %d: generation went backwards: %d -> %d", step, before, after)
		}
		if mutated && after == before {
			t.Fatalf("step %d: mutation did not bump the generation", step)
		}
		if !mutated && after != before {
			t.Fatalf("step %d: generation bumped without a mutation", step)
		}
	}
	if got := c.Clone().Gen(); got != c.Gen() {
		t.Fatalf("clone generation %d, source %d", got, c.Gen())
	}
}
