package telemetry

import "math"

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) of the observed
// distribution from the fixed buckets; see the package-level Quantile.
//
// The bucket counts are loaded once into a local snapshot, so a Quantile
// racing concurrent Observe calls returns an estimate for some consistent
// prefix of the observation stream rather than tearing.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return Quantile(h.bounds, counts, q)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) of a fixed-bucket
// distribution, using linear interpolation within the bucket the quantile
// rank falls into — the same estimate histogram_quantile() computes from
// scrape data, so a p99 reported here matches what a Prometheus dashboard
// over /metrics would show. bounds are the ascending finite upper bounds;
// counts holds one per-bucket (not cumulative) count per bound, then the
// +Inf bucket's count last, len(bounds)+1 in all.
//
// Conventions:
//   - no observations, or q outside [0,1] (or NaN) → NaN.
//   - The first bucket interpolates from a lower edge of 0 when its upper
//     bound is positive (latency ladders), or from the bound itself when
//     the bound is ≤ 0 (no width to interpolate over).
//   - A rank landing in the +Inf bucket returns the highest finite bound —
//     the estimate is a lower bound, as with Prometheus — or +Inf when
//     there are no finite buckets at all.
func Quantile(bounds []float64, counts []uint64, q float64) float64 {
	if math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i == len(bounds) {
			// +Inf bucket: no upper edge to interpolate toward.
			if len(bounds) == 0 {
				return math.Inf(1)
			}
			return bounds[len(bounds)-1]
		}
		upper := bounds[i]
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		} else if upper <= 0 {
			lower = upper
		}
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0 // q=0 lands at the lower edge of the first occupied bucket
		}
		return lower + (upper-lower)*frac
	}
	// Unreachable: cum == total ≥ rank by the end of the loop.
	return math.NaN()
}
