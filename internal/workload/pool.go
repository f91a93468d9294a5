package workload

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The module's one pool. The experiments fan independent units — a corpus's
// jobs, a sweep's VO cells — out over it, and FlowWith builds a flow's jobs
// on it; every flow, report, value and trace stays byte-identical to the
// sequential run. Two rules make it so:
//
//  1. Units share no mutable state. A randomized unit draws from its own
//     stream, split off in index order before the fan-out
//     (rng.Source.SplitN) or derived from the index (Generator.jobRNG), so
//     what it sees is a function of its index alone.
//  2. Results land in index-ordered slots and are merged, printed and traced
//     in index order after the pool drains, so floating-point sums, trace
//     bytes and report lines come out in the same order at every width.
//
// Nothing in the scheduler fans out: metasched and strategy plan on one
// goroutine.

// poolWidth is how many goroutines MapIndexed runs n units on: workers, or
// one per CPU when workers < 1, and never more than n.
func poolWidth(workers, n int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// panicError is a panic recovered from one unit, so that a misbehaving unit
// fails the run as an ordinary error instead of killing the process with
// goroutines in flight.
type panicError struct {
	index int
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("workload: unit %d panicked: %v", e.index, e.value)
}

// MapIndexed runs fn(i) for every i in [0, n) on poolWidth(workers, n)
// goroutines and returns the results in index order: out[i] is fn(i)'s
// value, whichever goroutine computed it. A panicking unit is recovered into
// a *panicError. After the first failure no new unit starts; the units in
// flight finish, and the error of the lowest-indexed failed unit is returned
// without results. Unit 0 is always dispatched before a failure can be seen,
// so a run in which every unit fails reports unit 0's error at any width;
// a pool of one worker runs the units in index order and stops at the first
// error.
func MapIndexed[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	unit := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &panicError{index: i, value: r, stack: debug.Stack()}
			}
		}()
		out[i], err = fn(i)
		return err
	}
	workers = poolWidth(workers, n)
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := unit(i); err != nil {
					mu.Lock()
					if firstIdx < 0 || i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
