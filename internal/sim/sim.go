// Package sim is a deterministic discrete-event simulation engine: a clock
// in integer model ticks and a priority queue of callbacks. Events at the
// same tick fire in scheduling order (FIFO), so a run is a pure function of
// its inputs — a requirement for the reproducible experiment harness.
package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/simtime"
)

// Engine is the simulation clock and event queue. The zero value is ready
// to use at time 0.
type Engine struct {
	now    simtime.Time
	queue  eventHeap
	seq    uint64
	events uint64 // fired so far
}

// Handle identifies a scheduled event and allows cancelling it.
type Handle struct{ ev *event }

type event struct {
	at        simtime.Time
	seq       uint64
	fn        func()
	cancelled bool
}

// New returns an engine with the clock at 0.
func New() *Engine { return &Engine{} }

// Now returns the current model time.
func (e *Engine) Now() simtime.Time { return e.now }

// Fired returns how many events have executed, a cheap progress metric.
func (e *Engine) Fired() uint64 { return e.events }

// Pending returns the number of scheduled, uncancelled events.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// At schedules fn to run at model time t. Scheduling strictly in the past
// panics, naming the event by name: it always indicates a logic error in
// the caller. The engine keeps nothing else of name, so a static label
// costs nothing. Scheduling at the current time is allowed and runs after
// already-queued events of this tick.
func (e *Engine) At(t simtime.Time, name string, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %d, now is %d", name, t, e.now))
	}
	ev := &event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return Handle{ev: ev}
}

// After schedules fn to run d ticks from now. Negative d panics.
func (e *Engine) After(d simtime.Time, name string, fn func()) Handle {
	return e.At(e.now+d, name, fn)
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op; it reports whether the cancellation
// took effect.
func (h Handle) Cancel() bool {
	if h.ev == nil || h.ev.cancelled || h.ev.fn == nil {
		return false
	}
	h.ev.cancelled = true
	return true
}

// Step fires the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil // mark fired
		e.events++
		fn()
		return true
	}
	return false
}

// Run fires events until the queue drains and returns the final time.
func (e *Engine) Run() simtime.Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil fires every event scheduled strictly before t, then advances the
// clock to t (events exactly at t remain pending).
func (e *Engine) RunUntil(t simtime.Time) {
	for {
		ev := e.peek()
		if ev == nil || ev.at >= t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

func (e *Engine) peek() *event {
	for e.queue.Len() > 0 {
		ev := e.queue[0]
		if ev.cancelled {
			heap.Pop(&e.queue)
			continue
		}
		return ev
	}
	return nil
}

// eventHeap orders by (time, sequence): stable FIFO within a tick.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	return h[a].seq < h[b].seq
}
func (h eventHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
