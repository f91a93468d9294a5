package telemetry

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs", L("kind", "a"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same handle.
	if c2 := r.Counter("jobs_total", "jobs", L("kind", "a")); c2 != c {
		t.Fatal("re-acquiring a series returned a different handle")
	}
	// Different labels are a different series.
	if c3 := r.Counter("jobs_total", "jobs", L("kind", "b")); c3 == c {
		t.Fatal("distinct label set shares a handle")
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "", L("x", "1"), L("y", "2"))
	b := r.Counter("m", "", L("y", "2"), L("x", "1"))
	if a != b {
		t.Fatal("label order changed the series identity")
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

// TestHistogramBuckets drives observations at, below, above and between
// every boundary of a small ladder and checks exactly which bucket each
// lands in. Bounds are inclusive upper limits (v ≤ bound), the implicit
// +Inf bucket catches the rest.
func TestHistogramBuckets(t *testing.T) {
	bounds := []float64{1, 2.5, 10}
	cases := []struct {
		name   string
		v      float64
		bucket int // index into counts; 3 = +Inf
	}{
		{"well below first", 0.5, 0},
		{"zero", 0, 0},
		{"negative", -3, 0},
		{"exactly first bound", 1, 0},
		{"just above first", 1.0001, 1},
		{"exactly second bound", 2.5, 1},
		{"between second and third", 5, 2},
		{"exactly last bound", 10, 2},
		{"above last bound", 10.5, 3},
		{"+Inf", math.Inf(1), 3},
		{"-Inf", math.Inf(-1), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("h", "", bounds)
			h.Observe(tc.v)
			if got := h.Count(); got != 1 {
				t.Fatalf("count = %d, want 1", got)
			}
			for i := 0; i <= len(bounds); i++ {
				want := uint64(0)
				if i == tc.bucket {
					want = 1
				}
				if got := h.BucketCount(i); got != want {
					t.Fatalf("bucket[%d] = %d, want %d", i, got, want)
				}
			}
		})
	}
}

func TestHistogramRejectsNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1})
	h.Observe(math.NaN())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("NaN was recorded: count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestHistogramInfSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1})
	h.Observe(math.Inf(1))
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if !math.IsInf(h.Sum(), 1) {
		t.Fatalf("sum = %v, want +Inf", h.Sum())
	}
}

func TestNormalizeBuckets(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want []float64
	}{
		{"nil means defaults", nil, DefBuckets},
		{"unsorted", []float64{5, 1, 2.5}, []float64{1, 2.5, 5}},
		{"duplicates dropped", []float64{1, 1, 2}, []float64{1, 2}},
		{"NaN and +Inf dropped", []float64{math.NaN(), 1, math.Inf(1)}, []float64{1}},
		{"-Inf kept (harmless lower bound)", []float64{math.Inf(-1), 1}, []float64{math.Inf(-1), 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := normalizeBuckets(tc.in)
			if len(got) != len(tc.want) {
				t.Fatalf("normalizeBuckets(%v) = %v, want %v", tc.in, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("normalizeBuckets(%v) = %v, want %v", tc.in, got, tc.want)
				}
			}
		})
	}
}

// counterRegistry builds a registry whose "c" counter series hold the
// given totals, one series per value, labelled by position parity so the
// merge exercises both shared and private label sets.
func counterRegistry(vals []uint16) *Registry {
	r := NewRegistry()
	for i, v := range vals {
		lab := "even"
		if i%2 == 1 {
			lab = "odd"
		}
		r.Counter("c", "test", L("p", lab)).Add(uint64(v))
	}
	return r
}

func counterTotals(r *Registry) map[string]uint64 {
	return map[string]uint64{
		"even": r.Counter("c", "test", L("p", "even")).Value(),
		"odd":  r.Counter("c", "test", L("p", "odd")).Value(),
	}
}

// TestMergeProperties checks the algebra Merge promises: commutativity,
// associativity, and the empty registry as identity — for counters and
// (delta-semantics) gauges.
func TestMergeProperties(t *testing.T) {
	commutes := func(a, b []uint16) bool {
		ab := counterRegistry(a)
		ab.Merge(counterRegistry(b))
		ba := counterRegistry(b)
		ba.Merge(counterRegistry(a))
		x, y := counterTotals(ab), counterTotals(ba)
		return x["even"] == y["even"] && x["odd"] == y["odd"]
	}
	if err := quick.Check(commutes, nil); err != nil {
		t.Errorf("counter merge is not commutative: %v", err)
	}

	associates := func(a, b, c []uint16) bool {
		// (a ⊕ b) ⊕ c
		l := counterRegistry(a)
		l.Merge(counterRegistry(b))
		l.Merge(counterRegistry(c))
		// a ⊕ (b ⊕ c)
		rbc := counterRegistry(b)
		rbc.Merge(counterRegistry(c))
		r := counterRegistry(a)
		r.Merge(rbc)
		x, y := counterTotals(l), counterTotals(r)
		return x["even"] == y["even"] && x["odd"] == y["odd"]
	}
	if err := quick.Check(associates, nil); err != nil {
		t.Errorf("counter merge is not associative: %v", err)
	}

	identity := func(a []uint16) bool {
		r := counterRegistry(a)
		want := counterTotals(r)
		r.Merge(NewRegistry()) // right identity
		l := NewRegistry()
		l.Merge(counterRegistry(a)) // left identity
		x, y := counterTotals(r), counterTotals(l)
		return x["even"] == want["even"] && x["odd"] == want["odd"] &&
			y["even"] == want["even"] && y["odd"] == want["odd"]
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("empty registry is not a merge identity: %v", err)
	}

	gaugeAdds := func(a, b int32) bool {
		x := NewRegistry()
		x.Gauge("g", "").Set(float64(a))
		y := NewRegistry()
		y.Gauge("g", "").Set(float64(b))
		x.Merge(y)
		return x.Gauge("g", "").Value() == float64(a)+float64(b)
	}
	if err := quick.Check(gaugeAdds, nil); err != nil {
		t.Errorf("gauge merge does not add levels: %v", err)
	}
}

func TestMergeHistograms(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	bounds := []float64{1, 10}
	a.Histogram("h", "", bounds).Observe(0.5)
	a.Histogram("h", "", bounds).Observe(5)
	b.Histogram("h", "", bounds).Observe(100)
	a.Merge(b)
	h := a.Histogram("h", "", bounds)
	if h.Count() != 3 {
		t.Fatalf("merged count = %d, want 3", h.Count())
	}
	if got := h.BucketCount(0); got != 1 {
		t.Fatalf("bucket[0] = %d, want 1", got)
	}
	if got := h.BucketCount(1); got != 1 {
		t.Fatalf("bucket[1] = %d, want 1", got)
	}
	if got := h.BucketCount(2); got != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", got)
	}
	if h.Sum() != 105.5 {
		t.Fatalf("sum = %v, want 105.5", h.Sum())
	}
}

// TestNilRegistryZeroAllocs is the hot-path guarantee: with telemetry
// disabled (nil registry, nil handles, nil tracer, nil span), every
// operation the instrumented code performs must not allocate at all.
func TestNilRegistryZeroAllocs(t *testing.T) {
	var reg *Registry
	var tr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		c := reg.Counter("grid_x_total", "help")
		c.Inc()
		c.Add(3)
		g := reg.Gauge("grid_x", "help")
		g.Set(1)
		g.Add(2)
		h := reg.Histogram("grid_x_seconds", "help", nil)
		h.Observe(0.5)
	}); n != 0 {
		t.Fatalf("nil registry metric ops allocate %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("x", 0)
		sp.SetInt("k", 1)
		sp.SetStr("s", "v")
		_ = sp.ID()
		sp.End()
	}); n != 0 {
		t.Fatalf("nil tracer span ops allocate %v times per run, want 0", n)
	}
}

// TestHotOpsZeroAllocs: with telemetry ENABLED, the per-event cost on an
// already-acquired handle is also allocation-free (single atomics).
func TestHotOpsZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(4)
		h.Observe(0.01)
	}); n != 0 {
		t.Fatalf("handle ops allocate %v times per run, want 0", n)
	}
}

// TestLookupHitZeroAllocs: acquiring a series that exists — what every
// per-job call site does after its first job — allocates nothing, for the
// label shapes the scheduler uses (none, one, two in key order) and for two
// given out of order, which are sorted on the stack. A value that varies by
// call (the build outcome, the domain) must not cost a string either.
func TestLookupHitZeroAllocs(t *testing.T) {
	r := NewRegistry()
	results := []string{"ok", "infeasible"}
	for _, res := range results {
		r.Counter("c1", "", L("result", res))
		r.Counter("c2", "", L("family", "S1"), L("result", res))
	}
	r.Counter("c0", "")
	r.Histogram("h0", "", nil)
	r.Histogram("h1", "", nil, L("family", "S1"))
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		res := results[i%2]
		i++
		r.Counter("c0", "").Inc()
		r.Counter("c1", "", L("result", res)).Inc()
		r.Counter("c2", "", L("family", "S1"), L("result", res)).Inc()
		r.Counter("c2", "", L("result", res), L("family", "S1")).Inc()
		r.Histogram("h0", "", nil).Observe(0.01)
		r.Histogram("h1", "", nil, L("family", "S1")).Observe(0.01)
	}); n != 0 {
		t.Fatalf("looking up existing series allocates %v times per run, want 0", n)
	}
	// AllocsPerRun makes one warm-up call; every call counts c2 twice.
	var got uint64
	for _, res := range results {
		got += r.Counter("c2", "", L("family", "S1"), L("result", res)).Value()
	}
	if want := uint64(2 * (1000 + 1)); got != want {
		t.Errorf("the two label orders hit different series: counted %d, want %d", got, want)
	}
}

// TestRegistryStress hammers one registry from 64 goroutines mixing
// handle acquisition, all three instrument kinds and concurrent
// Prometheus rendering; run under -race this is the data-race guard for
// the whole package.
func TestRegistryStress(t *testing.T) {
	const goroutines = 64
	const iters = 500
	r := NewRegistry()
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(id int) {
			defer wg.Done()
			lab := L("worker", string(rune('a'+id%8)))
			for k := 0; k < iters; k++ {
				r.Counter("stress_total", "stress", lab).Inc()
				r.Gauge("stress_level", "stress", lab).Add(1)
				r.Histogram("stress_seconds", "stress", nil, lab).Observe(float64(k) / 1000)
				if k%100 == 0 {
					var sink discard
					_ = r.WritePrometheus(&sink)
				}
			}
		}(i)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < 8; i++ {
		total += r.Counter("stress_total", "stress", L("worker", string(rune('a'+i)))).Value()
	}
	if want := uint64(goroutines * iters); total != want {
		t.Fatalf("stress counter total = %d, want %d", total, want)
	}
}

// discard is io.Discard without the package import, so the stress test's
// scrape path exercises WritePrometheus's error plumbing too.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
