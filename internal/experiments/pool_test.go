package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
)

// The experiments' units fan out through workload.MapIndexed, the module's
// one pool; these tests drive it through that exported face. The tests of
// its unexported width and panic record are beside it in workload.

// TestForEachRunsEveryUnitOnce hammers the pool across GOMAXPROCS values
// and worker counts (1, 2, N, 4N) and corpus sizes including zero,
// asserting every unit runs exactly once. Run under -race this is the
// concurrency stress scenario of the pool.
func TestForEachRunsEveryUnitOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		n := runtime.GOMAXPROCS(0)
		for _, workers := range []int{1, 2, n, 4 * n} {
			for _, units := range []int{0, 1, 7, 100, 1000} {
				name := fmt.Sprintf("procs=%d/workers=%d/units=%d", procs, workers, units)
				t.Run(name, func(t *testing.T) {
					counts := make([]atomic.Int32, units)
					_, err := workload.MapIndexed(workers, units, func(i int) (struct{}, error) {
						counts[i].Add(1)
						return struct{}{}, nil
					})
					if err != nil {
						t.Fatalf("MapIndexed: %v", err)
					}
					for i := range counts {
						if got := counts[i].Load(); got != 1 {
							t.Fatalf("unit %d ran %d times", i, got)
						}
					}
				})
			}
		}
	}
}

// TestMapCollectsIndexOrdered asserts out[i] == fn(i) at every worker
// count: results land in their slots no matter which goroutine computed
// them.
func TestMapCollectsIndexOrdered(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		out, err := workload.MapIndexed(workers, 500, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestErrorsReportLowestIndex asserts the deterministic error contract: a
// single failing unit is reported by its index, and a run where every unit
// fails reports unit 0 at any worker count.
func TestErrorsReportLowestIndex(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 8} {
		_, err := workload.MapIndexed(workers, 100, func(i int) (int, error) {
			if i == 42 {
				return 0, fmt.Errorf("unit %d: %w", i, sentinel)
			}
			return i, nil
		})
		if !errors.Is(err, sentinel) || err.Error() != "unit 42: boom" {
			t.Fatalf("workers=%d: err = %v, want unit 42", workers, err)
		}

		_, err = workload.MapIndexed(workers, 100, func(i int) (int, error) {
			return 0, fmt.Errorf("unit %d: %w", i, sentinel)
		})
		if !errors.Is(err, sentinel) || err.Error() != "unit 0: boom" {
			t.Fatalf("workers=%d: all-fail err = %v, want unit 0", workers, err)
		}
	}
}

// TestMapDiscardsResultsOnError asserts errored runs return nil results.
func TestMapDiscardsResultsOnError(t *testing.T) {
	out, err := workload.MapIndexed(4, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("out = %v, err = %v; want nil results and an error", out, err)
	}
}

// TestZeroUnits asserts the degenerate corpus is a no-op at any width.
func TestZeroUnits(t *testing.T) {
	called := false
	out, err := workload.MapIndexed(8, 0, func(int) (int, error) { called = true; return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("MapIndexed on empty corpus: out=%v err=%v", out, err)
	}
	if called {
		t.Fatal("unit ran on an empty corpus")
	}
}

// BenchmarkMapOverhead measures the pool's dispatch cost on trivial units.
func BenchmarkMapOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.MapIndexed(4, 256, func(i int) (int, error) { return i, nil }); err != nil {
			b.Fatal(err)
		}
	}
}
