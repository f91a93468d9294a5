// Package simtime defines the discrete model-time domain used by the whole
// simulator: integer ticks, half-open intervals, and interval algebra.
//
// The paper (Toporkov, PaCT 2009, §3) treats all schedule times as integer
// "wall time" units defined at reservation time, so the simulation uses
// int64 ticks rather than time.Duration: arithmetic is exact, deterministic
// and cheap to compare.
package simtime

import "fmt"

// Time is a point in model time, measured in abstract integer ticks.
type Time = int64

// Infinity is a time point later than any schedulable event.
const Infinity Time = 1<<62 - 1

// Interval is a half-open time interval [Start, End).
// An Interval with End <= Start is empty.
type Interval struct {
	Start Time
	End   Time
}

// Len returns the length of the interval, or 0 if it is empty.
func (iv Interval) Len() Time {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.End <= iv.Start }

// Overlaps reports whether the two half-open intervals share any point.
func (iv Interval) Overlaps(other Interval) bool {
	if iv.Empty() || other.Empty() {
		return false
	}
	return iv.Start < other.End && other.Start < iv.End
}

// Intersect returns the common part of the two intervals. The result is
// empty (Len()==0) when they do not overlap.
func (iv Interval) Intersect(other Interval) Interval {
	s := max(iv.Start, other.Start)
	e := min(iv.End, other.End)
	if e < s {
		return Interval{Start: s, End: s}
	}
	return Interval{Start: s, End: e}
}

// String renders the interval as "[start,end)".
func (iv Interval) String() string {
	return fmt.Sprintf("[%d,%d)", iv.Start, iv.End)
}
