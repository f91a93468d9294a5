// Dense-calendar and outage-repair benchmarks (see DESIGN.md §14). The
// CI bench-regression job runs each benchmark twice — baseline vs
// accelerated, selected by the flags below — and gates ≥2× speedups via
// cmd/benchcheck, appending all three comparison records to
// BENCH_calendar.json:
//
//	BenchmarkDenseCalendarFirstFree      -linear-calendar=true  vs  false
//	BenchmarkDenseCalendarConflictsWith  -linear-calendar=true  vs  false
//	BenchmarkOutageRepair                -repair=false          vs  true
//
// The committed BenchmarkOutageRepair record was last re-measured with
// PR 18, by the CI job's own commands on a 2-core linux/amd64 host
// (GOMAXPROCS 2, go1.24.0); the two calendar records date from PR 10.
package repro

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/resource"
	"repro/internal/simtime"
)

// benchLinearCalendar routes the dense-calendar benchmarks through the
// linear reference scans below instead of the indexed Calendar methods;
// the CI comparison baseline, mirroring the pre-index implementation.
var benchLinearCalendar = flag.Bool("linear-calendar", false, "answer the dense-calendar benchmark queries with linear scans (CI baseline) instead of the indexed methods")

// benchRepair toggles the outage benchmark between incremental repair
// (the default) and the full critical-works rebuild baseline.
var benchRepair = flag.Bool("repair", true, "serve the outage benchmark via incremental strategy repair; false runs the full-rebuild baseline")

// denseBook builds a book of n reservations [10i, 10i+7) — every gap 3
// ticks wide — with one length-50 hole before the final reservation, so
// a FirstFree probe for anything wider than 3 must reach the far end of
// the book: the linear walk's worst case, one max-gap-tree descent for
// the index.
func denseBook(n int) *resource.Calendar {
	c := resource.NewCalendar()
	hole := simtime.Time((n - 1) * 10)
	for i := 0; i < n; i++ {
		start := simtime.Time(i * 10)
		if start >= hole {
			start += 50
		}
		iv := simtime.Interval{Start: start, End: start + 7}
		if err := c.Reserve(iv, resource.External); err != nil {
			panic(err)
		}
	}
	return c
}

// linearFirstFree is the pre-index FirstFree: skip reservations ending by
// the cursor, stop at the first gap of `length` ticks.
func linearFirstFree(res []resource.Reservation, earliest, length, horizon simtime.Time) (simtime.Time, bool) {
	if length <= 0 || earliest >= horizon {
		return 0, false
	}
	t := earliest
	for _, r := range res {
		if r.Interval.End <= t {
			continue
		}
		if r.Interval.Start >= t+length {
			break
		}
		t = r.Interval.End
	}
	if t+length <= horizon {
		return t, true
	}
	return 0, false
}

// linearConflictsWith is the pre-index ConflictsWith: a full walk of the
// book collecting overlaps.
func linearConflictsWith(res []resource.Reservation, iv simtime.Interval) []resource.Reservation {
	if iv.Empty() {
		return nil
	}
	var out []resource.Reservation
	for _, r := range res {
		if r.Interval.Overlaps(iv) {
			out = append(out, r)
		}
	}
	return out
}

const denseBookSize = 12_000

// BenchmarkDenseCalendarFirstFree probes a 12k-reservation book for a
// window wider than every regular gap, from a rotating set of origins.
// The answer is always the engineered hole near the end of the book.
func BenchmarkDenseCalendarFirstFree(b *testing.B) {
	c := denseBook(denseBookSize)
	res := c.Reservations()
	horizon := simtime.Time(denseBookSize*10 + 1000)
	c.FirstFree(0, 20, horizon) // build the lazy index outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		earliest := simtime.Time((i % 64) * 100)
		var ok bool
		if *benchLinearCalendar {
			_, ok = linearFirstFree(res, earliest, 20, horizon)
		} else {
			_, ok = c.FirstFree(earliest, 20, horizon)
		}
		if !ok {
			b.Fatal("no window found in the dense book")
		}
	}
}

// BenchmarkDenseCalendarConflictsWith queries short windows across the
// same 12k-reservation book; each overlaps at most two reservations, so
// the indexed run is a binary search plus a two-element copy while the
// baseline walks all 12k entries.
func BenchmarkDenseCalendarConflictsWith(b *testing.B) {
	c := denseBook(denseBookSize)
	res := c.Reservations()
	c.BusyIn(simtime.Interval{Start: 0, End: 100}) // build the lazy index outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := simtime.Time(((i*5261)%denseBookSize)*10 + 5)
		iv := simtime.Interval{Start: at, End: at + 10}
		var got []resource.Reservation
		if *benchLinearCalendar {
			got = linearConflictsWith(res, iv)
		} else {
			got = c.ConflictsWith(iv)
		}
		if len(got) == 0 {
			b.Fatal("query window missed every reservation")
		}
	}
}

// outageFixture is the single-node-outage scenario: a job of eight
// independent three-task chains memo-built over ten nodes, then one node
// that only the last-placed chain touched drops out of the candidate
// set. Incremental repair replays the seven untouched chains from the
// memo and re-solves only the last; the baseline rebuilds all eight.
type outageFixture struct {
	env       *resource.Environment
	job       *dag.Job
	memo      *criticalworks.BuildMemo
	live      criticalworks.Calendars
	survivors []resource.NodeID
}

func newOutageFixture(b *testing.B) *outageFixture {
	bl := dag.NewBuilder("outage").Deadline(600)
	chains := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	for _, c := range chains {
		bl.Task(c+"1", 2, 20)
		bl.Task(c+"2", 2, 20)
		bl.Task(c+"3", 2, 20)
		bl.Edge(c+"e1", c+"1", c+"2", 1, 5)
		bl.Edge(c+"e2", c+"2", c+"3", 1, 5)
	}
	job := bl.MustBuild()
	nodes := make([]*resource.Node, 10)
	for i := range nodes {
		nodes[i] = resource.NewNode(resource.NodeID(i), fmt.Sprintf("n%d", i), 1.0, 1, "d")
	}
	env := resource.NewEnvironment(nodes)
	live := criticalworks.EmptyCalendars(env)

	opt := criticalworks.Options{CaptureMemo: true, Catalog: data.NewCatalog(data.RemoteAccess, 0)}
	s, err := criticalworks.Build(env, cloneBooks(live), job, opt)
	if err != nil {
		b.Fatalf("memoized build: %v", err)
	}
	memo := s.Memo()
	if memo == nil {
		b.Fatal("build finished above margin 1: no memo")
	}

	// Pick a node first touched by the last chain, so the repair resumes
	// at the deepest possible splice point.
	target := resource.NodeID(0)
	found := false
	last := len(memo.Chains) - 1
scan:
	for _, n := range memo.Chains[last].Touched {
		for j := 0; j < last; j++ {
			for _, m := range memo.Chains[j].Touched {
				if m == n {
					continue scan
				}
			}
		}
		target, found = n, true
		break
	}
	if !found {
		b.Fatal("last chain shares every node with earlier chains; restructure the fixture")
	}
	var survivors []resource.NodeID
	for _, id := range memo.Candidates {
		if id != target {
			survivors = append(survivors, id)
		}
	}
	return &outageFixture{env: env, job: job, memo: memo, live: live, survivors: survivors}
}

func cloneBooks(cals criticalworks.Calendars) criticalworks.Calendars {
	out := make(criticalworks.Calendars, len(cals))
	for id, c := range cals {
		out[id] = c.Clone()
	}
	return out
}

// BenchmarkOutageRepair re-anchors the fixture's job after the outage,
// once per iteration. At -repair=true the memo splices (seven chains
// replayed, one re-solved); at -repair=false every iteration runs the
// full critical-works build over the surviving candidates. Both sides
// pay the same snapshot-clone cost.
func BenchmarkOutageRepair(b *testing.B) {
	fx := newOutageFixture(b)
	gens := func(id resource.NodeID) uint64 { return fx.live[id].Gen() }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := criticalworks.Options{
			Candidates: fx.survivors,
			Catalog:    data.NewCatalog(data.RemoteAccess, 0),
		}
		if *benchRepair {
			s, out := criticalworks.TryRepair(fx.env, fx.job, opt, fx.memo,
				gens, func() criticalworks.Calendars { return cloneBooks(fx.live) })
			if out != criticalworks.RepairSpliced || s == nil {
				b.Fatalf("repair outcome = %v, want a splice", out)
			}
		} else {
			s, err := criticalworks.Build(fx.env, cloneBooks(fx.live), fx.job, opt)
			if err != nil {
				b.Fatalf("full rebuild: %v", err)
			}
			if s.Partial {
				b.Fatal("full rebuild went partial")
			}
		}
	}
}
