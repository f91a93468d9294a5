package resource

import (
	"repro/internal/simtime"
)

// calIndex is the augmented search structure a Calendar keeps alongside
// its sorted reservation slice (DESIGN.md §14). It answers the window
// query that used to walk the whole book in O(log n): gap is an implicit
// max-segment-tree over the free gap following each reservation (gap
// after the last one is Infinity), so FirstFree descends to the first
// sufficiently large gap instead of scanning every reservation before
// it.
//
// The index is derived data with a two-step life: built on the first query,
// marked stale by the next mutation, then rebuilt in place — same struct,
// same gap slice when it is large enough — by the first query after that. It
// belongs to one book and is never handed to a clone, whose queries a rebuild
// would otherwise write under. Reservations are sorted by Start and pairwise
// disjoint, which makes their Ends strictly increasing; every binary search
// below leans on that invariant.
type calIndex struct {
	gap   []simtime.Time // implicit segment tree: max free gap per leaf range
	size  int            // leaf span of the tree (power of two ≥ n)
	n     int            // number of reservations indexed
	stale bool           // the book has mutated since the build
}

// buildIndex constructs the index for a sorted, disjoint reservation
// slice, in ix's memory when ix is not nil.
func buildIndex(ix *calIndex, res []Reservation) *calIndex {
	if ix == nil {
		ix = new(calIndex)
	}
	n := len(res)
	size := min(n, 1) // no leaves for an empty book
	for size < n {
		size <<= 1
	}
	ix.n, ix.size, ix.stale = n, size, false
	if cap(ix.gap) < 2*size {
		ix.gap = make([]simtime.Time, 2*size)
	} else {
		ix.gap = ix.gap[:2*size]
		clear(ix.gap[size+n:]) // the padding leaves
	}
	if n == 0 {
		return ix
	}
	for i := 0; i < n-1; i++ {
		ix.gap[size+i] = res[i+1].Interval.Start - res[i].Interval.End
	}
	// The room after the last reservation is unbounded; padding leaves
	// beyond n keep gap 0, so no positive-length search ever lands there.
	ix.gap[size+n-1] = simtime.Infinity
	for i := size - 1; i >= 1; i-- {
		l, r := ix.gap[2*i], ix.gap[2*i+1]
		if l >= r {
			ix.gap[i] = l
		} else {
			ix.gap[i] = r
		}
	}
	return ix
}

// firstGapAtLeast returns the smallest j ≥ from whose following gap is at
// least length, or -1 when no such gap exists (possible only when length
// exceeds Infinity).
func (ix *calIndex) firstGapAtLeast(from int, length simtime.Time) int {
	if from < 0 {
		from = 0
	}
	if from >= ix.n {
		return -1
	}
	i := ix.size + from
	for {
		if ix.gap[i] >= length {
			// Descend to the leftmost qualifying leaf of this subtree.
			for i < ix.size {
				i <<= 1
				if ix.gap[i] < length {
					i++
				}
			}
			j := i - ix.size
			if j >= ix.n {
				return -1 // padding leaf; unreachable for length > 0
			}
			return j
		}
		// Climb to the lowest ancestor that has an unvisited right
		// sibling, then step into it. Reaching the root means every gap
		// at or after `from` is too small.
		for i&1 == 1 {
			i >>= 1
		}
		if i <= 1 {
			return -1
		}
		i++
	}
}

// searchRes is sort.Search specialized to the reservation slice; pred
// must be monotone over the sorted slice.
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
