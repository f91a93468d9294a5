package resource

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/simtime"
)

// Owner labels who holds a reservation, so that collision statistics can
// distinguish tasks of the same job, other jobs of the flow, and external
// background load.
type Owner struct {
	Job  string
	Task string
}

// External is the owner label for background-load reservations injected by
// the environment (other virtual organizations' flows).
var External = Owner{Job: "<external>"}

// Reservation is one advance reservation of a node for a wall-time window,
// as placed into the local batch system at resource-request time (§3).
type Reservation struct {
	Interval simtime.Interval
	Owner    Owner
}

// Calendar is a node's reservation book: a set of non-overlapping advance
// reservations. The zero value is not usable; call NewCalendar.
//
// The book is versioned: every mutation bumps a monotonic generation
// counter (Gen). Nothing in production branches on it; tests and snapshot
// callers use it to assert that a book did not move between two points.
type Calendar struct {
	res []Reservation // sorted by Interval.Start, pairwise disjoint
	gen uint64        // bumped on every mutation of res
}

// NewCalendar returns an empty calendar.
func NewCalendar() *Calendar { return &Calendar{} }

// ErrEmptyInterval reports a reservation attempt with an empty window.
// Callers use errors.Is to distinguish it from a *ErrConflict overlap.
var ErrEmptyInterval = errors.New("resource: empty reservation interval")

// ErrConflict reports a reservation attempt that overlaps an existing one.
type ErrConflict struct {
	Wanted   simtime.Interval
	Existing Reservation
}

func (e *ErrConflict) Error() string {
	return fmt.Sprintf("resource: interval %v conflicts with reservation %v held by %s/%s",
		e.Wanted, e.Existing.Interval, e.Existing.Owner.Job, e.Existing.Owner.Task)
}

// Len returns the number of reservations.
func (c *Calendar) Len() int { return len(c.res) }

// Gen returns the book's generation: a counter that increases on every
// mutation and never decreases. Two reads returning the same generation
// bracket a span in which the book did not change.
func (c *Calendar) Gen() uint64 { return c.gen }

// Reservations returns a copy of all reservations in start order.
func (c *Calendar) Reservations() []Reservation {
	return append([]Reservation(nil), c.res...)
}

// ConflictWith returns the first existing reservation overlapping iv, if any.
func (c *Calendar) ConflictWith(iv simtime.Interval) (Reservation, bool) {
	if iv.Empty() {
		return Reservation{}, false
	}
	i := sort.Search(len(c.res), func(i int) bool { return c.res[i].Interval.End > iv.Start })
	if i < len(c.res) && c.res[i].Interval.Overlaps(iv) {
		return c.res[i], true
	}
	return Reservation{}, false
}

// ConflictsWith returns every reservation overlapping iv, in start order. The
// result is a read-only view of the book, not a copy: it is valid until the
// book's next mutation, so a caller that mutates the book finishes reading
// first (or copies). Its capacity ends with the run, so an append to it
// cannot write into the book.
func (c *Calendar) ConflictsWith(iv simtime.Interval) []Reservation {
	if iv.Empty() {
		return nil
	}
	// Ends are strictly increasing (sorted + disjoint), so the overlap
	// run is contiguous: from the first reservation ending after iv.Start
	// up to the first one starting at or after iv.End.
	i := searchRes(c.res, func(r *Reservation) bool { return r.Interval.End > iv.Start })
	j := i
	for j < len(c.res) && c.res[j].Interval.Start < iv.End {
		j++
	}
	return c.res[i:j:j]
}

// searchRes is sort.Search specialized to the reservation slice; pred
// must be monotone over the sorted slice. Reservations are sorted by Start
// and pairwise disjoint, so their Ends strictly increase too.
func searchRes(res []Reservation, pred func(*Reservation) bool) int {
	lo, hi := 0, len(res)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pred(&res[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Free reports whether iv overlaps no reservation.
func (c *Calendar) Free(iv simtime.Interval) bool {
	_, busy := c.ConflictWith(iv)
	return !busy
}

// Reserve books iv for owner. It returns *ErrConflict when the window
// overlaps an existing reservation, leaving the calendar unchanged.
func (c *Calendar) Reserve(iv simtime.Interval, owner Owner) error {
	if iv.Empty() {
		return fmt.Errorf("%w: %v", ErrEmptyInterval, iv)
	}
	if existing, busy := c.ConflictWith(iv); busy {
		return &ErrConflict{Wanted: iv, Existing: existing}
	}
	i := sort.Search(len(c.res), func(i int) bool { return c.res[i].Interval.Start >= iv.Start })
	c.res = append(c.res, Reservation{})
	copy(c.res[i+1:], c.res[i:])
	c.res[i] = Reservation{Interval: iv, Owner: owner}
	c.gen++
	return nil
}

// Release removes the reservation exactly matching iv and owner. It reports
// whether a reservation was removed.
func (c *Calendar) Release(iv simtime.Interval, owner Owner) bool {
	for i, r := range c.res {
		if r.Interval == iv && r.Owner == owner {
			c.res = append(c.res[:i], c.res[i+1:]...)
			c.gen++
			return true
		}
	}
	return false
}

// ReleaseJob removes every reservation whose owner belongs to job.
func (c *Calendar) ReleaseJob(job string) int {
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

// FirstFree returns the earliest start t >= earliest such that [t, t+length)
// is free, searching up to the horizon. ok is false when no such window
// exists before the horizon.
//
// It finds the first reservation ending after earliest, then walks the run
// that blocks the window, moving t past each reservation until the next one
// starts at least length ticks later (DESIGN.md §14).
func (c *Calendar) FirstFree(earliest, length, horizon simtime.Time) (simtime.Time, bool) {
	if length <= 0 || earliest >= horizon {
		return 0, false
	}
	t := earliest
	i := searchRes(c.res, func(r *Reservation) bool { return r.Interval.End > earliest })
	for ; i < len(c.res) && c.res[i].Interval.Start < t+length; i++ {
		t = c.res[i].Interval.End
	}
	if t+length <= horizon {
		return t, true
	}
	return 0, false
}

// BusyIn returns the number of reserved ticks inside span: the clipped
// sum of the contiguous run of reservations overlapping it.
func (c *Calendar) BusyIn(span simtime.Interval) simtime.Time {
	var total simtime.Time
	i := searchRes(c.res, func(r *Reservation) bool { return r.Interval.End > span.Start })
	for ; i < len(c.res) && c.res[i].Interval.Start < span.End; i++ {
		total += c.res[i].Interval.Intersect(span).Len()
	}
	return total
}

// PruneBefore drops every reservation that ends at or before t, returning
// how many were removed. Long-running simulations call this periodically:
// past reservations can never affect future fits, but they linger in the
// book and slow the linear scans down.
func (c *Calendar) PruneBefore(t simtime.Time) int {
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

// Void removes every reservation and appends them to dst in start order —
// the node's local batch system losing its book when the node crashes. The
// caller decides each voided owner's fate (evict, retry, drop). The book
// keeps its array, so it fills again after the outage without growing, and
// a caller that voids into one buffer allocates only when the buffer grows.
func (c *Calendar) Void(dst []Reservation) []Reservation {
	dst = append(dst, c.res...)
	if len(c.res) > 0 {
		c.res = c.res[:0]
		c.gen++
	}
	return dst
}

// Clone returns a deep copy of the calendar, for a caller that reserves
// into it or keeps it while the live book moves on. The clone carries the
// source's generation, so comparing the two later tells whether the live
// book has moved since the copy.
func (c *Calendar) Clone() *Calendar {
	cp := &Calendar{res: make([]Reservation, len(c.res)), gen: c.gen}
	copy(cp.res, c.res)
	return cp
}
