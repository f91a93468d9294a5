package workload

import (
	"errors"
	"runtime"
	"testing"
)

// TestPanicRecoveredIntoError asserts a panicking unit surfaces as a
// *panicError instead of crashing the run, sequentially and in parallel.
func TestPanicRecoveredIntoError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := MapIndexed(workers, 50, func(i int) (int, error) {
			if i == 17 {
				panic("unit exploded")
			}
			return i, nil
		})
		var pe *panicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *panicError", workers, err)
		}
		if pe.index != 17 {
			t.Fatalf("workers=%d: panic index = %d, want 17", workers, pe.index)
		}
		if pe.value != "unit exploded" || len(pe.stack) == 0 {
			t.Fatalf("workers=%d: panic detail lost: %+v", workers, pe)
		}
	}
}

// TestResolve pins the width semantics: < 1 means one worker per CPU, and
// never more workers than units.
func TestResolve(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, units, want int }{
		{0, 1000, procs}, {-3, 1000, procs}, {5, 1000, 5}, {5, 3, 3},
	} {
		if got := poolWidth(c.workers, c.units); got != c.want {
			t.Errorf("poolWidth(%d, %d) = %d, want %d", c.workers, c.units, got, c.want)
		}
	}
}
