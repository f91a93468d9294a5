// Package telemetry is the repo's runtime observability layer: a
// dependency-free, race-safe metrics registry (counters, gauges,
// fixed-bucket histograms, all with label sets) plus lightweight span
// tracing with a JSONL sink. It instruments the scheduling hot paths —
// the critical works DP, strategy generation, the metascheduler's
// placement/fallback/reallocation ladder, the circuit breakers and the
// service admission queue — without perturbing them:
//
//   - A nil *Registry, nil *Tracer, nil handle or nil span is a valid
//     disabled instrument. Every method on it is a no-op that performs
//     ZERO heap allocations, so the simulation path pays nothing when
//     telemetry is off (guarded by testing.AllocsPerRun in the tests).
//   - Telemetry only observes. It never touches the RNG streams, the
//     model clock or any scheduling decision, so a run with telemetry
//     enabled produces byte-identical reports, value maps and VO traces
//     (guarded by the differential tests in internal/experiments).
//
// Handles are cheap to acquire but hot code should acquire them once and
// keep them: Counter.Add, Gauge.Set and Histogram.Observe are single
// atomic operations with no allocation.
//
// The metric naming scheme and span taxonomy are documented in
// DESIGN.md §10.
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a metric series.
type Label struct {
	Key, Value string
}

// L builds a Label; telemetry.L("domain", "dom-a") reads better at call
// sites than a struct literal.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies a metric family.
type Kind int

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing series. The zero value is unusable;
// acquire one from a Registry. A nil Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Nil-safe, allocation-free.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds 1. Nil-safe, allocation-free.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total; 0 on nil.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 series. A nil Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v. Nil-safe, allocation-free.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop). Nil-safe, allocation-free.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value; 0 on nil.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative upper
// bounds as in Prometheus; an implicit +Inf bucket always exists. A nil
// Histogram no-ops.
type Histogram struct {
	bounds []float64       // ascending, exclusive of +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    Gauge           // float64 accumulator (CAS Add)
	count  atomic.Uint64
}

// DefBuckets is the default latency bucket ladder, in seconds.
var DefBuckets = []float64{0.00025, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Observe records one observation. Zero, negative and +Inf observations
// are counted (+Inf lands in the implicit +Inf bucket and drives the sum
// to +Inf, per the Prometheus convention); NaN is rejected as meaningless.
// Nil-safe, allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound admits v; bounds are short (tens at
	// most), so a linear scan beats sort.SearchFloat64s' call overhead.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations; 0 on nil.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the observation total; 0 on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// BucketCount returns the count of bucket i (0 ≤ i ≤ len(bounds), the
// last being +Inf); 0 on nil or out of range.
func (h *Histogram) BucketCount(i int) uint64 {
	if h == nil || i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i].Load()
}

// family is one named metric with its per-labelset series.
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64          // histograms only
	series  map[string]*series // by canonical label key
}

// series is one labelset instance of a family.
type series struct {
	labels []Label // sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metric families and hands out handles. All methods are
// safe for concurrent use. A nil *Registry is a valid disabled registry:
// handle acquisition returns nil handles and snapshots are empty.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter series for name and labels, registering the
// family (with help) on first use. Acquiring an existing series returns
// the same handle. Nil registry returns a nil (no-op) handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, nil, labels).c
}

// Gauge is Counter's gauge counterpart.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindGauge, nil, labels).g
}

// Histogram returns the histogram series for name and labels. buckets are
// ascending upper bounds (deduplicated, NaN/+Inf dropped); nil means
// DefBuckets. The family's first registration fixes the buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindHistogram, buckets, labels).h
}

// lookup finds or creates the family and series. Finding an existing series
// — every call after a call site's first — allocates nothing: the label set
// is canonicalized in place or on the stack and the series map is probed
// with a key built in a stack buffer.
func (r *Registry) lookup(name, help string, kind Kind, buckets []float64, labels []Label) *series {
	var sortBuf [8]Label
	labels = sortedLabels(sortBuf[:0], labels)
	var keyBuf [128]byte
	key := appendLabelKey(keyBuf[:0], labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if s, ok := f.series[string(key)]; ok { // no string is built for a map probe
			if f.kind != kind {
				r.mu.RUnlock()
				panic(fmt.Sprintf("telemetry: metric %q re-registered as %v, was %v", name, kind, f.kind))
			}
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		if kind == KindHistogram {
			f.buckets = normalizeBuckets(buckets)
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	s, ok := f.series[string(key)]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = &Histogram{
				bounds: f.buckets,
				counts: make([]atomic.Uint64, len(f.buckets)+1),
			}
		}
		f.series[string(key)] = s
	}
	return s
}

// normalizeBuckets sorts, deduplicates and cleans a bucket spec.
func normalizeBuckets(buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefBuckets
	}
	out := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if math.IsNaN(b) || math.IsInf(b, +1) {
			continue // +Inf is implicit; NaN is meaningless
		}
		out = append(out, b)
	}
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		if i == 0 || b != out[i-1] {
			dedup = append(dedup, b)
		}
	}
	return dedup
}

// sortedLabels returns labels in key order: labels itself when it already
// is (any set of at most one label, and most call sites' literal order),
// else a sorted copy appended to buf. Neither may be kept — the caller's
// slice is the caller's, buf is usually a stack array.
func sortedLabels(buf, labels []Label) []Label {
	byKey := func(a, b Label) int { return strings.Compare(a.Key, b.Key) }
	if slices.IsSortedFunc(labels, byKey) {
		return labels
	}
	out := append(buf, labels...)
	slices.SortStableFunc(out, byKey) // generic: no reflection swapper to allocate
	return out
}

// appendLabelKey appends the canonical key of a sorted label set to dst
// (NUL-separated — NUL cannot appear in a sane label, and escaping only
// matters for exposition).
func appendLabelKey(dst []byte, labels []Label) []byte {
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = append(dst, l.Key...)
		dst = append(dst, 0)
		dst = append(dst, l.Value...)
	}
	return dst
}

// Merge folds other's series into r: counters and histogram buckets add,
// gauges add (delta semantics, so merging per-shard registries sums their
// levels). Families and series missing from r are created with other's
// help and buckets. Merging a nil registry (either side) is a no-op.
// Counter merge is commutative and associative with the empty registry as
// identity (guarded by quick.Check property tests).
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	type famCopy struct {
		name    string
		help    string
		kind    Kind
		buckets []float64
		series  []seriesSnap
	}
	other.mu.RLock()
	fams := make([]famCopy, 0, len(other.families))
	for _, f := range other.families {
		fc := famCopy{name: f.name, help: f.help, kind: f.kind, buckets: f.buckets}
		for _, s := range f.series {
			fc.series = append(fc.series, snapSeries(f, s))
		}
		fams = append(fams, fc)
	}
	other.mu.RUnlock()

	for _, fc := range fams {
		for _, sn := range fc.series {
			switch fc.kind {
			case KindCounter:
				r.Counter(fc.name, fc.help, sn.Labels...).Add(sn.Value)
			case KindGauge:
				r.Gauge(fc.name, fc.help, sn.Labels...).Add(sn.GaugeValue)
			case KindHistogram:
				h := r.Histogram(fc.name, fc.help, fc.buckets, sn.Labels...)
				h.merge(sn)
			}
		}
	}
}

// merge adds a snapshot's buckets into h. Bucket layouts are aligned by
// construction (Merge passes the source family's bounds through).
func (h *Histogram) merge(sn seriesSnap) {
	if h == nil {
		return
	}
	for i, c := range sn.Buckets {
		if i < len(h.counts) {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(sn.Sum)
	h.count.Add(sn.Count)
}

// seriesSnap is one series' frozen state.
type seriesSnap struct {
	Labels []Label
	// Value is the counter total.
	Value uint64
	// GaugeValue is the gauge level.
	GaugeValue float64
	// Buckets/Sum/Count describe a histogram.
	Buckets []uint64
	Sum     float64
	Count   uint64
}

// snapSeries freezes one series.
func snapSeries(f *family, s *series) seriesSnap {
	sn := seriesSnap{Labels: s.labels}
	switch f.kind {
	case KindCounter:
		sn.Value = s.c.Value()
	case KindGauge:
		sn.GaugeValue = s.g.Value()
	case KindHistogram:
		sn.Buckets = make([]uint64, len(s.h.counts))
		for i := range s.h.counts {
			sn.Buckets[i] = s.h.counts[i].Load()
		}
		sn.Sum = s.h.Sum()
		sn.Count = s.h.Count()
	}
	return sn
}
