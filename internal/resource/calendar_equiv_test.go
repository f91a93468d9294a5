package resource

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
)

// refCalendar is the naive linear reference model for Calendar: every
// query a full walk over the sorted slice, with no binary search. The
// equivalence suite drives both implementations with identical operation
// sequences and demands identical answers to every query — the search
// that skips to the first overlapping reservation must never change a
// single result (DESIGN.md §14).
type refCalendar struct {
	res []Reservation
	gen uint64
}

func (c *refCalendar) Len() int { return len(c.res) }

func (c *refCalendar) Gen() uint64 { return c.gen }

func (c *refCalendar) Reservations() []Reservation {
	return append([]Reservation(nil), c.res...)
}

func (c *refCalendar) ConflictWith(iv simtime.Interval) (Reservation, bool) {
	if iv.Empty() {
		return Reservation{}, false
	}
	for _, r := range c.res {
		if r.Interval.End <= iv.Start {
			continue
		}
		if r.Interval.Overlaps(iv) {
			return r, true
		}
		break
	}
	return Reservation{}, false
}

func (c *refCalendar) ConflictsWith(iv simtime.Interval) []Reservation {
	var out []Reservation
	if iv.Empty() {
		return nil
	}
	for _, r := range c.res {
		if r.Interval.Start >= iv.End {
			break
		}
		if r.Interval.Overlaps(iv) {
			out = append(out, r)
		}
	}
	return out
}

func (c *refCalendar) Free(iv simtime.Interval) bool {
	_, busy := c.ConflictWith(iv)
	return !busy
}

func (c *refCalendar) Reserve(iv simtime.Interval, owner Owner) error {
	if iv.Empty() {
		return fmt.Errorf("%w: %v", ErrEmptyInterval, iv)
	}
	if existing, busy := c.ConflictWith(iv); busy {
		return &ErrConflict{Wanted: iv, Existing: existing}
	}
	i := 0
	for i < len(c.res) && c.res[i].Interval.Start < iv.Start {
		i++
	}
	c.res = append(c.res, Reservation{})
	copy(c.res[i+1:], c.res[i:])
	c.res[i] = Reservation{Interval: iv, Owner: owner}
	c.gen++
	return nil
}

func (c *refCalendar) Release(iv simtime.Interval, owner Owner) bool {
	for i, r := range c.res {
		if r.Interval == iv && r.Owner == owner {
			c.res = append(c.res[:i], c.res[i+1:]...)
			c.gen++
			return true
		}
	}
	return false
}

func (c *refCalendar) ReleaseJob(job string) int {
	out := c.res[:0]
	removed := 0
	for _, r := range c.res {
		if r.Owner.Job == job {
			removed++
			continue
		}
		out = append(out, r)
	}
	c.res = out
	if removed > 0 {
		c.gen++
	}
	return removed
}

func (c *refCalendar) FirstFree(earliest, length, horizon simtime.Time) (simtime.Time, bool) {
	if length <= 0 || earliest >= horizon {
		return 0, false
	}
	t := earliest
	for _, r := range c.res {
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

func (c *refCalendar) BusyIn(span simtime.Interval) simtime.Time {
	var total simtime.Time
	for _, r := range c.res {
		total += r.Interval.Intersect(span).Len()
	}
	return total
}

func (c *refCalendar) PruneBefore(t simtime.Time) int {
	kept := c.res[:0]
	removed := 0
	for _, r := range c.res {
		if r.Interval.End <= t {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	c.res = kept
	if removed > 0 {
		c.gen++
	}
	return removed
}

func (c *refCalendar) Void() []Reservation {
	out := c.res
	c.res = nil
	if len(out) > 0 {
		c.gen++
	}
	return out
}

func (c *refCalendar) Clone() *refCalendar {
	cp := &refCalendar{res: make([]Reservation, len(c.res)), gen: c.gen}
	copy(cp.res, c.res)
	return cp
}

// failer abstracts *testing.T so the fuzz target can reuse the
// comparison helpers.
type failer interface {
	Helper()
	Fatalf(format string, args ...any)
}

func sameReservations(a, b []Reservation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareCalendars cross-examines the calendar against the
// reference on the full query surface, over a battery of windows derived
// from the current book plus the probe values supplied by the driver.
func compareCalendars(t failer, step int, c *Calendar, ref *refCalendar, probes []simtime.Time) {
	t.Helper()
	if c.Len() != ref.Len() {
		t.Fatalf("step %d: Len %d != reference %d", step, c.Len(), ref.Len())
	}
	if c.Gen() != ref.Gen() {
		t.Fatalf("step %d: Gen %d != reference %d", step, c.Gen(), ref.Gen())
	}
	if !sameReservations(c.Reservations(), ref.Reservations()) {
		t.Fatalf("step %d: reservation listing diverged:\n  calendar:  %v\n  reference: %v",
			step, c.Reservations(), ref.Reservations())
	}
	spans := make([]simtime.Interval, 0, len(probes)*len(probes)/2+4)
	for i := 0; i < len(probes); i++ {
		for j := i; j < len(probes); j++ {
			spans = append(spans, simtime.Interval{Start: probes[i], End: probes[j]})
		}
	}
	// Edge windows: empty, inverted, and book-straddling.
	spans = append(spans,
		simtime.Interval{Start: 0, End: 0},
		simtime.Interval{Start: 100, End: 50},
		simtime.Interval{Start: -50, End: 1 << 40},
	)
	for _, span := range spans {
		if got, want := c.ConflictsWith(span), ref.ConflictsWith(span); !sameReservations(got, want) {
			t.Fatalf("step %d: ConflictsWith(%v) = %v, reference %v", step, span, got, want)
		}
		gr, gb := c.ConflictWith(span)
		wr, wb := ref.ConflictWith(span)
		if gr != wr || gb != wb {
			t.Fatalf("step %d: ConflictWith(%v) = (%v,%v), reference (%v,%v)", step, span, gr, gb, wr, wb)
		}
		if got, want := c.Free(span), ref.Free(span); got != want {
			t.Fatalf("step %d: Free(%v) = %v, reference %v", step, span, got, want)
		}
		if got, want := c.BusyIn(span), ref.BusyIn(span); got != want {
			t.Fatalf("step %d: BusyIn(%v) = %d, reference %d", step, span, got, want)
		}
	}
	for _, earliest := range probes {
		for _, length := range []simtime.Time{0, 1, 3, 17, 64, 1 << 20} {
			for _, horizon := range []simtime.Time{earliest, earliest + 100, 1 << 30, simtime.Infinity} {
				gt, gok := c.FirstFree(earliest, length, horizon)
				wt, wok := ref.FirstFree(earliest, length, horizon)
				if gt != wt || gok != wok {
					t.Fatalf("step %d: FirstFree(%d,%d,%d) = (%d,%v), reference (%d,%v)",
						step, earliest, length, horizon, gt, gok, wt, wok)
				}
			}
		}
	}
}

// equivStep applies one randomized operation to both implementations and
// demands identical mutation results. Returns probe points for the query
// comparison.
func equivStep(t failer, step int, r *rng.Source, c *Calendar, ref *refCalendar) (*Calendar, *refCalendar) {
	t.Helper()
	owner := func() Owner {
		return Owner{Job: fmt.Sprintf("job-%d", r.Intn(6)), Task: fmt.Sprintf("t%d", r.Intn(3))}
	}
	switch r.Intn(10) {
	case 0, 1, 2, 3: // Reserve dominates real traffic
		start := simtime.Time(r.Intn(2000))
		iv := simtime.Interval{Start: start, End: start + simtime.Time(r.Intn(40))}
		o := owner()
		errC, errR := c.Reserve(iv, o), ref.Reserve(iv, o)
		if (errC == nil) != (errR == nil) {
			t.Fatalf("step %d: Reserve(%v) err %v, reference %v", step, iv, errC, errR)
		}
	case 4: // Release an existing booking (or a miss)
		res := ref.Reservations()
		var iv simtime.Interval
		var o Owner
		if len(res) > 0 && r.Intn(4) > 0 {
			pick := res[r.Intn(len(res))]
			iv, o = pick.Interval, pick.Owner
		} else {
			start := simtime.Time(r.Intn(2000))
			iv, o = simtime.Interval{Start: start, End: start + 5}, owner()
		}
		if got, want := c.Release(iv, o), ref.Release(iv, o); got != want {
			t.Fatalf("step %d: Release(%v) = %v, reference %v", step, iv, got, want)
		}
	case 5, 6:
		job := fmt.Sprintf("job-%d", r.Intn(6))
		if got, want := c.ReleaseJob(job), ref.ReleaseJob(job); got != want {
			t.Fatalf("step %d: ReleaseJob(%q) = %d, reference %d", step, job, got, want)
		}
	case 7:
		at := simtime.Time(r.Intn(2200))
		if got, want := c.PruneBefore(at), ref.PruneBefore(at); got != want {
			t.Fatalf("step %d: PruneBefore(%d) = %d, reference %d", step, at, got, want)
		}
	case 8:
		got, want := c.Void(nil), ref.Void()
		if !sameReservations(got, want) {
			t.Fatalf("step %d: Void() = %v, reference %v", step, got, want)
		}
	case 9: // Clone and continue on the clones (or the originals)
		cc, rc := c.Clone(), ref.Clone()
		compareCalendars(t, step, cc, rc, []simtime.Time{0, 100, 500})
		if r.Intn(2) == 0 {
			return cc, rc
		}
	}
	return c, ref
}

func TestCalendarIndexEquivalenceRandomOps(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rng.New(seed)
			c, ref := NewCalendar(), &refCalendar{}
			for step := 0; step < 400; step++ {
				c, ref = equivStep(t, step, r, c, ref)
				probes := []simtime.Time{
					0,
					simtime.Time(r.Intn(2200)),
					simtime.Time(r.Intn(2200)),
					simtime.Time(r.Intn(2200)),
				}
				compareCalendars(t, step, c, ref, probes)
			}
		})
	}
}

// TestCalendarCloneRecycleInterleaved: clones must not share books. A family
// of books grows by cloning; every step picks a member at random and mutates
// it (equivStep, whose own Clone case hands the member on to its copy half
// the time), or clones it into the family, and then every member — the one
// just touched, its source, its clones, books last queried many steps ago —
// is cross-examined against its own linear reference. A slice still shared
// with another book answers for the wrong reservations and fails here.
func TestCalendarCloneRecycleInterleaved(t *testing.T) {
	type book struct {
		c   *Calendar
		ref *refCalendar
	}
	for seed := uint64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rng.New(100 + seed)
			family := []book{{NewCalendar(), &refCalendar{}}}
			for step := 0; step < 300; step++ {
				i := r.Intn(len(family))
				if b := family[i]; r.Intn(5) == 0 {
					cp := book{b.c.Clone(), b.ref.Clone()}
					if len(family) < 6 {
						family = append(family, cp)
					} else {
						family[r.Intn(len(family))] = cp
					}
				} else {
					family[i].c, family[i].ref = equivStep(t, step, r, b.c, b.ref)
				}
				probes := []simtime.Time{0, simtime.Time(r.Intn(2200)), simtime.Time(r.Intn(2200))}
				for _, b := range family {
					compareCalendars(t, step, b.c, b.ref, probes)
				}
			}
		})
	}
}

// TestCalendarIndexAllocs pins a warm book's query cost: FirstFree is a pure
// read of the sorted slice, so Reserve → FirstFree → ReleaseJob on a
// 32-reservation book whose slice has reached its size allocates nothing.
func TestCalendarIndexAllocs(t *testing.T) {
	c := NewCalendar()
	for k := 0; k < 32; k++ {
		start := simtime.Time(10 * k)
		if err := c.Reserve(simtime.Interval{Start: start, End: start + 7}, External); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		if err := c.Reserve(simtime.Interval{Start: 7, End: 10}, Owner{Job: "j", Task: "t"}); err != nil {
			t.Fatal(err)
		}
		if at, ok := c.FirstFree(0, 5, simtime.Infinity); !ok || at != 320-3 {
			t.Fatalf("FirstFree = (%d, %v), want the room after the last reservation", at, ok)
		}
		if c.ReleaseJob("j") != 1 {
			t.Fatal("ReleaseJob did not find the reservation")
		}
		if at, ok := c.FirstFree(0, 5, simtime.Infinity); !ok || at != 320-3 {
			t.Fatalf("FirstFree = (%d, %v) after the release", at, ok)
		}
	}
	cycle() // the slice grows to 33
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Reserve → FirstFree → ReleaseJob on a warm book allocates %.1f objects, want 0", allocs)
	}
}

// TestConflictsWithAllocs pins ConflictsWith's view: the overlapping run is
// returned as a slice of the book, so asking allocates nothing, and the view
// ends at the run's capacity, so a caller appending to it gets a copy and
// the book is untouched.
func TestConflictsWithAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the pin runs in CI's step without -race")
	}
	c := NewCalendar()
	for k := 0; k < 32; k++ {
		start := simtime.Time(10 * k)
		if err := c.Reserve(simtime.Interval{Start: start, End: start + 7}, External); err != nil {
			t.Fatal(err)
		}
	}
	span := simtime.Interval{Start: 95, End: 128}
	view := c.ConflictsWith(span)
	if len(view) != 4 || view[0].Interval.Start != 90 || view[3].Interval.Start != 120 {
		t.Fatalf("ConflictsWith(%v) = %v, want the four reservations from 90 to 120", span, view)
	}
	if allocs := testing.AllocsPerRun(100, func() { view = c.ConflictsWith(span) }); allocs != 0 {
		t.Errorf("ConflictsWith over a book with overlaps allocates %.1f objects, want 0", allocs)
	}
	grown := append(view, Reservation{Owner: Owner{Job: "appended"}})
	if next := c.Reservations()[13]; next.Owner != External || next.Interval.Start != 130 || len(grown) != 5 {
		t.Fatalf("an append to the view wrote into the book: %v", next)
	}
}

// TestVoidAllocs pins Void's buffer contract: voiding into a warm buffer
// allocates nothing, and the book keeps its array, so filling it again
// within that capacity allocates nothing either — a crashed node's book does
// not grow back from nil.
func TestVoidAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the pin runs in CI's step without -race")
	}
	c := NewCalendar()
	fill := func() {
		for k := 0; k < 32; k++ {
			start := simtime.Time(10 * k)
			if err := c.Reserve(simtime.Interval{Start: start, End: start + 7}, External); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	buf := c.Void(nil)
	cycle := func() {
		fill()
		buf = c.Void(buf[:0])
		if len(buf) != 32 || c.Len() != 0 {
			t.Fatalf("voided %d of 32, %d left on the book", len(buf), c.Len())
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Void into a warm buffer, then Reserve within the kept capacity, allocates %.1f objects, want 0", allocs)
	}
}
