package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 1) of
// samples: the smallest value with at least q·n samples at or below it.
// It sorts a copy; an empty set yields 0.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based nearest-rank index of the q-th percentile in a
// sorted set of n samples.
func rankIndex(n int, q float64) int {
	// The epsilon keeps q·n products that are whole numbers in exact
	// arithmetic (0.99·1000) from rounding up to the next rank.
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// tailLadder is the candidate tail percentiles, highest first.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.95, 0.9}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it, so the reported tail is a rank the sample
// count can support rather than the maximum under another name. With
// fewer than 100 samples no ladder entry qualifies and q is 0.
func tailPercentile(n int) (q float64) {
	for _, q := range tailLadder {
		if n-(rankIndex(n, q)+1) >= 10 {
			return q
		}
	}
	return 0
}

// tail is the value behind the *_p99_* metrics. A ledger repeat has 1000
// to 2000 samples, for which the highest supportable percentile is p99;
// a smaller smoke run reports the lower percentile its count supports
// (the median below 100 samples) under the same name.
func tail(samples []float64) float64 {
	q := min(tailPercentile(len(samples)), 0.99)
	if q == 0 {
		q = 0.5
	}
	return percentile(samples, q)
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// summary is what a metric reports across repeats.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(v []float64) summary {
	return summary{Median: median(v), Q1: percentile(v, 0.25), Q3: percentile(v, 0.75), N: len(v)}
}

// relDiff is |a−b| as a share of |a|; two zeros differ by nothing.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(a)
}
