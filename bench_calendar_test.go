// Dense-calendar benchmarks (see DESIGN.md §14). The CI bench-regression
// job runs each twice — baseline vs accelerated, selected by the flag
// below — and gates ≥2× speedups via cmd/benchcheck, appending both
// comparison records to BENCH_calendar.json:
//
//	BenchmarkDenseCalendarFirstFree      -linear-calendar=true  vs  false
//	BenchmarkDenseCalendarConflictsWith  -linear-calendar=true  vs  false
//
// BenchmarkBuildManyChains, ungated, is the critical-works build on the one
// fixture with many critical works.
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

// BenchmarkBuildManyChains builds a job of eight independent three-task
// chains — eight critical works, the only fixture with many — over nine of
// ten empty equal nodes, once per iteration, each on a fresh clone of the
// books. BenchmarkBuild's single dense job places few chains and missed a
// +35 % per-probe scan of the attempt's own placements that this one caught.
// Node 7 is left out because the outage benchmark this fixture comes from
// dropped it: EXPERIMENTS.md E15–E17 read this build as
// "BenchmarkOutageRepair -repair=false".
func BenchmarkBuildManyChains(b *testing.B) {
	bl := dag.NewBuilder("outage").Deadline(600)
	for _, c := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
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
	cands := []resource.NodeID{0, 1, 2, 3, 4, 5, 6, 8, 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := criticalworks.Build(env, live.Clone(), job, criticalworks.Options{
			Candidates: cands,
			Data:       data.Model{Policy: data.RemoteAccess},
		})
		if err != nil {
			b.Fatalf("build: %v", err)
		}
		if s.Partial {
			b.Fatal("build went partial")
		}
	}
}
