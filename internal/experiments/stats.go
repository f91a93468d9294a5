package experiments

import (
	"fmt"
	"math"
	"sort"
)

// Series accumulates float64 observations for a report's mean, maximum and
// percentiles. The zero value is an empty series ready to use.
type Series struct {
	values []float64
}

// Add appends one observation.
func (s *Series) Add(v float64) { s.values = append(s.values, v) }

// AddInt appends an integer observation.
func (s *Series) AddInt(v int64) { s.Add(float64(v)) }

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Max returns the largest observation, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using the
// nearest-rank method, or 0 for an empty series.
func (s *Series) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// counter tallies occurrences per string label.
type counter struct {
	counts map[string]int
}

func newCounter() *counter { return &counter{counts: make(map[string]int)} }

// inc adds n to the label's tally.
func (c *counter) inc(label string, n int) { c.counts[label] += n }

// total returns the sum across labels.
func (c *counter) total() int {
	t := 0
	for _, n := range c.counts {
		t += n
	}
	return t
}

// share returns the label's fraction of the total, or 0 when empty.
func (c *counter) share(label string) float64 {
	t := c.total()
	if t == 0 {
		return 0
	}
	return float64(c.counts[label]) / float64(t)
}

// normalize scales the values so the maximum becomes 1 — the paper's
// "relative" presentation in Fig. 4(b,c). An all-zero input is returned
// unchanged.
func normalize(values map[string]float64) map[string]float64 {
	var max float64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	out := make(map[string]float64, len(values))
	for k, v := range values {
		if max == 0 {
			out[k] = 0
		} else {
			out[k] = v / max
		}
	}
	return out
}

// ratio formats a fraction as a percentage with one decimal.
func ratio(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
