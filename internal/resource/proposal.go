package resource

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/simtime"
)

// This file is the commit half of the shared-state optimistic concurrent
// placement model (DESIGN.md §12). A placer builds a set of Claims
// against the calendars as they stood at one instant; the Proposal records
// which calendar generations it read (its read-set). At commit time the
// claims are validated against the live books: when a book's generation is
// unchanged since the read the claim is known good without re-scanning,
// otherwise the claimed window is re-checked against the current
// reservations. Winners apply atomically; a losing proposal reports the
// conflicting reservations so the arbiter can apply the paper's
// collision-resolution rules and retry against fresh state.

// Claim is one advance reservation a proposal wants to place.
type Claim struct {
	Node   NodeID
	Window simtime.Interval
	Owner  Owner
}

// Conflict reports a claim that cannot be applied and the existing
// reservation (on the claim's node) it collides with.
type Conflict struct {
	Claim    Claim
	Existing Reservation
}

func (c Conflict) String() string {
	return fmt.Sprintf("claim node %d %v by %s/%s vs reservation %v held by %s/%s",
		c.Claim.Node, c.Claim.Window, c.Claim.Owner.Job, c.Claim.Owner.Task,
		c.Existing.Interval, c.Existing.Owner.Job, c.Existing.Owner.Task)
}

// CalendarView resolves a node to its calendar, or nil when the node is
// unknown. Both live books and snapshot clones satisfy it.
type CalendarView func(NodeID) *Calendar

// Proposal is a placement built optimistically against the books of one
// instant: the claims to apply plus the generation of every calendar the
// build read (the read-set).
type Proposal struct {
	// Reads maps each node whose calendar the build observed to the
	// generation it had then. A claim on a node whose live generation
	// still matches needs no window re-validation.
	Reads map[NodeID]uint64
	// Claims are the reservations to apply, all-or-nothing.
	Claims []Claim
}

// Validate checks the proposal against view without mutating anything.
// It returns every detected conflict: claims with empty windows, claims
// on nodes the view cannot resolve, claims overlapping each other, and
// claims overlapping existing reservations. For a node whose generation
// matches the recorded read the existing-reservation scan is skipped —
// the build already proved those windows free.
func (p *Proposal) Validate(view CalendarView) []Conflict {
	var out []Conflict

	// One sorted copy of the non-empty claims; each node's claims are then
	// a contiguous run in (start, end) order, nodes ascending. The sort is
	// stable so that duplicate claims report in the order they were made.
	claims := make([]Claim, 0, len(p.Claims))
	for _, cl := range p.Claims {
		if cl.Window.Empty() {
			out = append(out, Conflict{Claim: cl})
			continue
		}
		claims = append(claims, cl)
	}
	slices.SortStableFunc(claims, func(a, b Claim) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node),
			cmp.Compare(a.Window.Start, b.Window.Start), cmp.Compare(a.Window.End, b.Window.End))
	})

	for len(claims) > 0 {
		n, end := claims[0].Node, 1
		for end < len(claims) && claims[end].Node == n {
			end++
		}
		run := claims[:end]
		claims = claims[end:]

		// Self-disjointness: two claims of one proposal must not overlap on
		// the same node, whatever the books say.
		for i := 1; i < len(run); i++ {
			if run[i].Window.Overlaps(run[i-1].Window) {
				out = append(out, Conflict{
					Claim:    run[i],
					Existing: Reservation{Interval: run[i-1].Window, Owner: run[i-1].Owner},
				})
			}
		}

		cal := view(n)
		if cal == nil {
			for _, cl := range run {
				out = append(out, Conflict{Claim: cl})
			}
			continue
		}
		if gen, ok := p.Reads[n]; ok && gen == cal.Gen() {
			continue // book unchanged since the build read it: windows proven free
		}
		for _, cl := range run {
			if existing, busy := cal.ConflictWith(cl.Window); busy {
				out = append(out, Conflict{Claim: cl, Existing: existing})
			}
		}
	}
	return out
}

// Commit validates the proposal against view and, when clean, applies
// every claim. The application is atomic: if a Reserve fails despite the
// validation (possible only when the generation fast path was fed a
// stale read-set by the caller), every already-applied claim is released
// and the conflict is reported. Commit never panics on adversarial
// input; it returns nil exactly when all claims are now reserved.
func (p *Proposal) Commit(view CalendarView) []Conflict {
	if conflicts := p.Validate(view); len(conflicts) != 0 {
		return conflicts
	}
	for i, cl := range p.Claims {
		if err := view(cl.Node).Reserve(cl.Window, cl.Owner); err != nil {
			// Roll back the claims applied so far, restoring the books.
			for _, done := range p.Claims[:i] {
				view(done.Node).Release(done.Window, done.Owner)
			}
			if conflict, ok := err.(*ErrConflict); ok {
				return []Conflict{{Claim: cl, Existing: conflict.Existing}}
			}
			return []Conflict{{Claim: cl}}
		}
	}
	return nil
}
