package telemetry

import (
	"math"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	mk := func(bounds []float64, obs ...float64) *Histogram {
		r := NewRegistry()
		h := r.Histogram("q_test", "t", bounds)
		for _, v := range obs {
			h.Observe(v)
		}
		return h
	}
	approx := func(a, b float64) bool { return a == b || math.Abs(a-b) < 1e-9 }

	tests := []struct {
		name string
		h    *Histogram
		q    float64
		want float64 // NaN means "want NaN"
	}{
		{"nil histogram", nil, 0.5, math.NaN()},
		{"empty histogram", mk([]float64{1, 2}), 0.5, math.NaN()},
		{"q below range", mk([]float64{1}, 0.5), -0.1, math.NaN()},
		{"q above range", mk([]float64{1}, 0.5), 1.1, math.NaN()},
		{"q NaN", mk([]float64{1}, 0.5), math.NaN(), math.NaN()},

		// Single bucket [0,10]: uniform interpolation across the bucket.
		{"single bucket median", mk([]float64{10}, 1, 2, 3, 4), 0.5, 5},
		{"single bucket q=1", mk([]float64{10}, 1, 2, 3, 4), 1, 10},
		// q=0 lands at the lower edge of the first occupied bucket.
		{"q=0 first bucket", mk([]float64{10, 20}, 15, 15), 0, 10},

		// Two buckets, 2 obs each: median at the first bucket's upper edge.
		{"two buckets median", mk([]float64{1, 2}, 0.5, 0.5, 1.5, 1.5), 0.5, 1},
		{"two buckets p75", mk([]float64{1, 2}, 0.5, 0.5, 1.5, 1.5), 0.75, 1.5},

		// +Inf bucket: the estimate clamps to the highest finite bound.
		{"inf bucket p99", mk([]float64{1, 2}, 0.5, 5, 7, 9), 0.99, 2},
		{"all in inf bucket", mk([]float64{1, 2}, 5, 6, 7), 0.5, 2},
		// No finite buckets at all: +Inf is the only honest answer.
		{"no finite buckets", mk([]float64{}, 5, 6), 0.5, math.Inf(1)},

		// Negative-bound first bucket has no interpolation width.
		{"negative first bound", mk([]float64{-1, 1}, -2, -3), 0.5, -1},
	}
	for _, tc := range tests {
		got := tc.h.Quantile(tc.q)
		if math.IsNaN(tc.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Quantile(%v) = %v, want NaN", tc.name, tc.q, got)
			}
			continue
		}
		if !approx(got, tc.want) {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestQuantileMonotone: for a fixed histogram, Quantile must be
// non-decreasing in q.
func TestQuantileMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_mono", "t", DefBuckets)
	for i := 0; i < 500; i++ {
		h.Observe(float64(i%97) / 31.0)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestQuantileNilIsAllocationFree(t *testing.T) {
	var h *Histogram
	if n := testing.AllocsPerRun(100, func() { _ = h.Quantile(0.99) }); n != 0 {
		t.Errorf("nil Quantile allocates %v times per run", n)
	}
}

// TestQuantile holds the package-level estimate over bucket counts as a
// client reads them from a scrape: per-bucket counts, +Inf last.
func TestQuantile(t *testing.T) {
	bounds := []float64{0.01, 0.1}
	counts := []uint64{3, 6, 1} // cumulative 3, 9, 10
	tests := []struct {
		name   string
		bounds []float64
		counts []uint64
		q      float64
		want   float64 // NaN means "want NaN"
	}{
		// Rank 5 lands in (0.01, 0.1], 2 of its 6 observations in.
		{"median interpolates", bounds, counts, 0.5, 0.01 + (0.1-0.01)*(2.0/6.0)},
		// Rank 9.9 lands in the +Inf bucket: the highest finite bound.
		{"p99 in the inf bucket", bounds, counts, 0.99, 0.1},
		{"no buckets", nil, nil, 0.5, math.NaN()},
		{"all zero", bounds, []uint64{0, 0, 0}, 0.5, math.NaN()},
	}
	for _, tc := range tests {
		got := Quantile(tc.bounds, tc.counts, tc.q)
		if math.IsNaN(tc.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Quantile(%v) = %v, want NaN", tc.name, tc.q, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}
