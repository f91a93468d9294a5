package faults

import (
	"reflect"
	"testing"

	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
)

func testEnv() *resource.Environment {
	perfs := []float64{1.0, 0.5, 0.33, 0.27, 0.8, 0.4}
	nodes := make([]*resource.Node, len(perfs))
	for i, p := range perfs {
		dom := "dom-0"
		if i >= 3 {
			dom = "dom-1"
		}
		nodes[i] = resource.NewNode(resource.NodeID(i), "n", p, dom)
	}
	return resource.NewEnvironment(nodes)
}

func TestZeroConfigDisabled(t *testing.T) {
	var cfg Config
	if cfg.OutagesEnabled() {
		t.Error("zero config not disabled")
	}
	if got := Schedule(cfg, testEnv()); got != nil {
		t.Errorf("zero config produced outages: %v", got)
	}
	if cfg.Availability() != 1 {
		t.Errorf("zero-config availability = %v, want 1", cfg.Availability())
	}
}

func TestScheduleDeterministicSortedAndBounded(t *testing.T) {
	cfg := Config{MTBF: 50, MTTR: 10, DomainOutageProb: 0.3, Until: 1000, Seed: 9}
	env := testEnv()
	a, b := Schedule(cfg, env), Schedule(cfg, env)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("schedule not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("no outages generated")
	}
	for i, o := range a {
		if o.Interval.Start >= cfg.Until {
			t.Errorf("outage %d starts at %d, beyond horizon %d", i, o.Interval.Start, cfg.Until)
		}
		if o.Interval.Len() < 1 {
			t.Errorf("outage %d has empty window %v", i, o.Interval)
		}
		if i > 0 && a[i-1].Interval.Start > o.Interval.Start {
			t.Errorf("outages out of order at %d", i)
		}
	}
}

func TestSchedulePerNodeStreamsIndependent(t *testing.T) {
	// A node's outage stream must not shift when the config changes only
	// the horizon: the first outages of a longer schedule are a superset
	// prefix per node.
	env := testEnv()
	short := Schedule(Config{MTBF: 40, MTTR: 8, Until: 500, Seed: 3}, env)
	long := Schedule(Config{MTBF: 40, MTTR: 8, Until: 2000, Seed: 3}, env)
	inLong := make(map[Outage]bool, len(long))
	for _, o := range long {
		inLong[o] = true
	}
	for _, o := range short {
		if !inLong[o] {
			t.Errorf("outage %+v of the short schedule missing from the long one", o)
		}
	}
}

func TestDomainOutageProbability(t *testing.T) {
	env := testEnv()
	all := Schedule(Config{MTBF: 30, MTTR: 5, DomainOutageProb: 1, Until: 2000, Seed: 1}, env)
	for _, o := range all {
		if o.Domain == "" {
			t.Fatalf("prob 1 produced node-only outage %+v", o)
		}
	}
	none := Schedule(Config{MTBF: 30, MTTR: 5, DomainOutageProb: 0, Until: 2000, Seed: 1}, env)
	for _, o := range none {
		if o.Domain != "" {
			t.Fatalf("prob 0 produced domain outage %+v", o)
		}
	}
}

func TestAvailabilityRoundTrip(t *testing.T) {
	for _, want := range []float64{0.99, 0.9, 0.75, 0.5} {
		mtbf, mttr := ForAvailability(want, 20)
		cfg := Config{MTBF: mtbf, MTTR: mttr}
		if got := cfg.Availability(); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("availability(%v) round-tripped to %v", want, got)
		}
	}
	if mtbf, _ := ForAvailability(1.0, 20); mtbf != 0 {
		t.Errorf("availability 1 gave MTBF %v, want 0 (disabled)", mtbf)
	}
}

func TestBackoffDoublesAndSaturates(t *testing.T) {
	cfg := Config{RetryBackoff: 3}
	for i, want := range []simtime.Time{3, 6, 12, 24} {
		if got := cfg.Backoff(i + 1); got != want {
			t.Errorf("backoff(%d) = %d, want %d", i+1, got, want)
		}
	}
	var def Config
	if def.Backoff(1) != DefaultBackoff {
		t.Errorf("default base = %d, want %d", def.Backoff(1), DefaultBackoff)
	}
	// A pathological attempt count must saturate, not wrap negative.
	if got := def.Backoff(200); got <= 0 {
		t.Errorf("backoff(200) = %d, wrapped", got)
	}
}

func TestExpBackoffCapAndEdgeCases(t *testing.T) {
	cases := []struct {
		base    simtime.Time
		attempt int
		max     simtime.Time
		want    simtime.Time
	}{
		{4, 1, 1 << 20, 4},
		{4, 3, 1 << 20, 16},
		{4, 0, 1 << 20, 4},              // attempt below 1 treated as 1
		{4, -5, 1 << 20, 4},             // ditto
		{4, 19, 1 << 20, 1 << 20},       // overshoots → cap
		{4, 64, 1 << 20, 1 << 20},       // shift ≥ width → cap, no wrap
		{4, 1 << 30, 1 << 20, 1 << 20},  // absurd attempt → cap
		{3, 62, BackoffCap, BackoffCap}, // near-int64 shift saturates
		{1 << 40, 30, BackoffCap, BackoffCap},
		{100, 5, 50, 50},                     // base already ≥ max
		{0, 3, 1 << 20, DefaultBackoff << 2}, // zero base → default
		{4, 10, 0, 4 << 9},                   // zero max → BackoffCap fallback
	}
	for _, tc := range cases {
		got := ExpBackoff(tc.base, tc.attempt, tc.max)
		if got != tc.want {
			t.Errorf("ExpBackoff(%d, %d, %d) = %d, want %d", tc.base, tc.attempt, tc.max, got, tc.want)
		}
		if got <= 0 {
			t.Errorf("ExpBackoff(%d, %d, %d) = %d, non-positive", tc.base, tc.attempt, tc.max, got)
		}
	}
	// Every (base, attempt) combination stays positive and monotone up to
	// the cap — the overflow class the unguarded shift used to hit.
	for attempt := 1; attempt < 300; attempt++ {
		d := ExpBackoff(7, attempt, BackoffCap)
		if d <= 0 || d > BackoffCap {
			t.Fatalf("attempt %d: delay %d out of range", attempt, d)
		}
	}
}

func TestJitterBoundsAndDeterminism(t *testing.T) {
	r := rng.New(42)
	const d, frac = 1000, 0.25
	lo, hi := simtime.Time(750), simtime.Time(1250)
	for i := 0; i < 200; i++ {
		got := Jitter(d, frac, r)
		if got < lo || got > hi {
			t.Fatalf("jitter %d outside [%d,%d]", got, lo, hi)
		}
	}
	// Zero fraction or nil source must return d exactly without drawing.
	before := rng.New(7)
	if Jitter(d, 0, before) != d {
		t.Error("zero frac altered the delay")
	}
	if before.Uint64() != rng.New(7).Uint64() {
		t.Error("zero frac consumed randomness")
	}
	if Jitter(d, frac, nil) != d {
		t.Error("nil source altered the delay")
	}
	// Same seed → same sequence.
	a, b := rng.New(9), rng.New(9)
	for i := 0; i < 50; i++ {
		if Jitter(d, frac, a) != Jitter(d, frac, b) {
			t.Fatal("jitter not deterministic per seed")
		}
	}
	// Tiny delays never jitter below 1 tick.
	small := rng.New(3)
	for i := 0; i < 100; i++ {
		if got := Jitter(2, 1.0, small); got < 1 {
			t.Fatalf("jitter %d below 1 tick", got)
		}
	}
}

func TestJitteredBackoffZeroFracIdentical(t *testing.T) {
	cfg := Config{RetryBackoff: 8}
	r := rng.New(1)
	for k := 1; k <= 6; k++ {
		if cfg.JitteredBackoff(k, r) != cfg.Backoff(k) {
			t.Fatalf("attempt %d: zero JitterFrac changed the delay", k)
		}
	}
	jcfg := Config{RetryBackoff: 8, JitterFrac: 0.5}
	saw := false
	for k := 1; k <= 6; k++ {
		d := jcfg.JitteredBackoff(k, r)
		base := jcfg.Backoff(k)
		if d < base/2 || d > base+base/2 {
			t.Fatalf("attempt %d: jittered delay %d outside ±50%% of %d", k, d, base)
		}
		if d != base {
			saw = true
		}
	}
	if !saw {
		t.Error("jitter never moved any delay")
	}
}
