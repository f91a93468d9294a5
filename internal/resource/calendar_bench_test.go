package resource

import (
	"runtime"
	"testing"

	"repro/internal/simtime"
)

// Dense-calendar queries (DESIGN.md §14): FirstFree and ConflictsWith on a
// 12k-reservation book, far beyond any book a workload holds. The
// benchmarks time them alone; TestDenseCalendarIndexBeatsLinearScan times
// ConflictsWith's binary search against the linear reference refCalendar.

const denseBookSize = 12_000

// denseBook builds a book of n reservations [10i, 10i+7) — every gap 3
// ticks wide — with one length-50 hole before the final reservation, so
// a FirstFree probe for anything wider than 3 must walk to the far end of
// the book: the walk's worst case, kept by BenchmarkDenseCalendarFirstFree
// as the record of its price.
func denseBook(n int) *Calendar {
	c := NewCalendar()
	hole := simtime.Time((n - 1) * 10)
	for i := 0; i < n; i++ {
		start := simtime.Time(i * 10)
		if start >= hole {
			start += 50
		}
		if err := c.Reserve(simtime.Interval{Start: start, End: start + 7}, External); err != nil {
			panic(err)
		}
	}
	return c
}

const denseHorizon = simtime.Time(denseBookSize*10 + 1000)

// denseFirstFree probes the dense book for a window wider than every
// regular gap, from a rotating set of origins. The answer is always the
// engineered hole near the end of the book.
func denseFirstFree(b *testing.B, firstFree func(earliest, length, horizon simtime.Time) (simtime.Time, bool)) {
	for i := 0; i < b.N; i++ {
		if _, ok := firstFree(simtime.Time((i%64)*100), 20, denseHorizon); !ok {
			b.Fatal("no window found in the dense book")
		}
	}
}

// denseConflictsWith queries short windows across the dense book, short of
// the last reservation, which the hole moved; each overlaps at most two
// reservations.
func denseConflictsWith(b *testing.B, conflictsWith func(simtime.Interval) []Reservation) {
	for i := 0; i < b.N; i++ {
		at := simtime.Time(((i*5261)%(denseBookSize-1))*10 + 5)
		if len(conflictsWith(simtime.Interval{Start: at, End: at + 10})) == 0 {
			b.Fatal("query window missed every reservation")
		}
	}
}

func BenchmarkDenseCalendarFirstFree(b *testing.B) {
	c := denseBook(denseBookSize)
	b.ResetTimer()
	denseFirstFree(b, c.FirstFree)
}

func BenchmarkDenseCalendarConflictsWith(b *testing.B) {
	c := denseBook(denseBookSize)
	b.ResetTimer()
	denseConflictsWith(b, c.ConflictsWith)
}

// TestDenseCalendarIndexBeatsLinearScan requires ConflictsWith's binary
// search to beat the linear walk by more than 2× on the dense book.
func TestDenseCalendarIndexBeatsLinearScan(t *testing.T) {
	if raceEnabled {
		t.Skip("host-time gate; it runs in CI's step without -race")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("host-time gate; needs at least 2 CPUs")
	}
	c := denseBook(denseBookSize)
	ref := &refCalendar{res: c.Reservations()}
	nsPerOp := func(f func(*testing.B)) float64 {
		r := testing.Benchmark(f)
		if r.N == 0 {
			t.Fatal("ConflictsWith: the benchmark failed")
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	linear := nsPerOp(func(b *testing.B) { denseConflictsWith(b, ref.ConflictsWith) })
	searched := nsPerOp(func(b *testing.B) { denseConflictsWith(b, c.ConflictsWith) })
	t.Logf("ConflictsWith: linear %.0f ns/op, binary search %.0f ns/op, %.1f×", linear, searched, linear/searched)
	if linear/searched <= 2 {
		t.Errorf("ConflictsWith is %.2f× the linear walk, want > 2×", linear/searched)
	}
}
