// Package parallel provides the simulator's deterministic fan-out
// substrate: a bounded worker pool that runs independent units of work —
// the experiment engine's per-job strategy builds and per-config cells —
// across goroutines while keeping every observable result byte-identical
// to the sequential execution. Nothing in the scheduler itself fans out:
// in metasched and strategy the engine goroutine plans and books alone.
//
// Determinism rests on two rules the callers follow:
//
//  1. Units never share mutable state. Randomized units receive their own
//     pre-split RNG stream (rng.Source.SplitN), derived in index order
//     BEFORE the fan-out, so the stream a unit sees is a function of its
//     index alone, not of goroutine scheduling.
//  2. Results land in index-ordered slots (Map) and are merged, printed or
//     traced strictly in index order AFTER the pool drains. Floating-point
//     accumulation, trace emission and report formatting therefore happen
//     in the same order at every worker count.
//
// With workers == 1 the pool degenerates to a plain loop on the calling
// goroutine — the old sequential path, byte for byte.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a worker-count knob: values < 1 mean "one worker per
// available CPU" (runtime.GOMAXPROCS(0)).
func Resolve(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// PanicError wraps a panic recovered from a unit of work, so that one
// misbehaving unit fails the run as an ordinary error instead of killing
// the process with goroutines in flight.
type PanicError struct {
	// Index is the unit that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: unit %d panicked: %v", e.Index, e.Value)
}

// ForEach runs fn(i) for every i in [0, n) on at most `workers` goroutines
// (Resolve applied, capped at n). A panicking unit is recovered into a
// *PanicError. After the first failure the pool stops dispatching new
// units, waits for in-flight ones, and returns the error of the
// lowest-indexed failed unit; unit 0 is always dispatched before any
// failure can be observed, so a run in which every unit fails reports
// unit 0's error at any worker count.
//
// With one worker the units run in index order on the calling goroutine
// and the first error aborts the loop immediately — the sequential path.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := runUnit(i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstIdx < 0 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := runUnit(i, fn); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// runUnit executes one unit with panic containment.
func runUnit(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Map runs fn for every index and collects the results into index-ordered
// slots: out[i] holds fn(i)'s value regardless of which goroutine computed
// it or when it finished. On error the partial results are discarded and
// the lowest-indexed failure is returned (see ForEach).
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
