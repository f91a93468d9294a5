package breaker

import (
	"testing"

	"repro/internal/simtime"
)

// step drives one scripted observation against the breaker.
type step struct {
	at      simtime.Time
	op      string // "fail", "ok", "allow", "deny"
	want    State  // expected State(at) AFTER the op
	comment string
}

func run(t *testing.T, b *Breaker, steps []step) {
	t.Helper()
	for i, s := range steps {
		switch s.op {
		case "fail":
			b.Failure(s.at)
		case "ok":
			b.Success(s.at)
		case "allow":
			if !b.Allow(s.at) {
				t.Fatalf("step %d (%s): Allow(%d) = false, want true", i, s.comment, s.at)
			}
		case "deny":
			if b.Allow(s.at) {
				t.Fatalf("step %d (%s): Allow(%d) = true, want false", i, s.comment, s.at)
			}
		default:
			t.Fatalf("step %d: bad op %q", i, s.op)
		}
		if got := b.State(s.at); got != s.want {
			t.Fatalf("step %d (%s): state = %v, want %v", i, s.comment, got, s.want)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	cfg := Config{Threshold: 3, OpenBase: 10, OpenMax: 100}

	t.Run("trips after threshold consecutive failures", func(t *testing.T) {
		b := New("d", cfg)
		run(t, b, []step{
			{0, "allow", Closed, "healthy"},
			{1, "fail", Closed, "1st failure"},
			{2, "fail", Closed, "2nd failure"},
			{3, "allow", Closed, "still below threshold"},
			{4, "fail", Open, "3rd failure trips"},
			{5, "deny", Open, "quarantined"},
			{13, "deny", Open, "window 10 not yet over"},
		})
		if trips, fails := b.tripsC.Value(), b.failsC.Value(); trips != 1 || fails != 3 {
			t.Fatalf("grid_breaker_trips_total=%d grid_breaker_failures_total=%d", trips, fails)
		}
	})

	t.Run("success resets the consecutive count", func(t *testing.T) {
		b := New("d", cfg)
		run(t, b, []step{
			{1, "fail", Closed, "1st"},
			{2, "fail", Closed, "2nd"},
			{3, "ok", Closed, "reset"},
			{4, "fail", Closed, "count restarts at 1"},
			{5, "fail", Closed, "2nd again"},
			{6, "fail", Open, "3rd after reset trips"},
		})
	})

	t.Run("half-open probe closes on success", func(t *testing.T) {
		b := New("d", cfg)
		run(t, b, []step{
			{0, "fail", Closed, ""},
			{1, "fail", Closed, ""},
			{2, "fail", Open, "tripped at 2, window 10"},
			{12, "allow", HalfOpen, "window over: one probe"},
			{12, "deny", HalfOpen, "second probe vetoed while first in flight"},
			{15, "ok", Closed, "probe succeeded"},
			{16, "allow", Closed, "healthy again"},
		})
		if b.RetryAfter(16) != 0 {
			t.Fatalf("RetryAfter after close = %d", b.RetryAfter(16))
		}
	})

	t.Run("half-open probe failure reopens with doubled window", func(t *testing.T) {
		b := New("d", cfg)
		run(t, b, []step{
			{0, "fail", Closed, ""},
			{1, "fail", Closed, ""},
			{2, "fail", Open, "trip 1: window 10 → until 12"},
			{12, "allow", HalfOpen, "probe"},
			{13, "fail", Open, "trip 2: window 20 → until 33"},
			{32, "deny", Open, "still quarantined"},
			{33, "allow", HalfOpen, "second window over"},
			{34, "fail", Open, "trip 3: window 40 → until 74"},
			{73, "deny", Open, ""},
			{74, "allow", HalfOpen, ""},
		})
		if got := b.tripsC.Value(); got != 3 {
			t.Fatalf("grid_breaker_trips_total = %d, want 3", got)
		}
	})

	t.Run("window growth caps at OpenMax", func(t *testing.T) {
		b := New("d", Config{Threshold: 1, OpenBase: 10, OpenMax: 25})
		now := simtime.Time(0)
		for k := 0; k < 10; k++ {
			b.Failure(now)
			w := b.RetryAfter(now)
			if w <= 0 || w > 25 {
				t.Fatalf("trip %d: window %d outside (0,25]", k+1, w)
			}
			now += w
			if !b.Allow(now) {
				t.Fatalf("trip %d: probe vetoed after window", k+1)
			}
		}
	})

	t.Run("trip count resets after closing", func(t *testing.T) {
		b := New("d", Config{Threshold: 1, OpenBase: 10, OpenMax: 1000})
		run(t, b, []step{
			{0, "fail", Open, "trip 1: until 10"},
			{10, "allow", HalfOpen, ""},
			{11, "fail", Open, "trip 2: window 20, until 31"},
			{31, "allow", HalfOpen, ""},
			{32, "ok", Closed, "healed: trips reset"},
			{40, "fail", Open, "fresh trip: window back to 10"},
			{49, "deny", Open, ""},
			{50, "allow", HalfOpen, "base window again, not 40"},
		})
	})
}

func TestBreakerDefaultsAndZeroConfig(t *testing.T) {
	b := New("d", Config{})
	for i := 0; i < 4; i++ {
		b.Failure(simtime.Time(i))
		if b.State(simtime.Time(i)) != Closed {
			t.Fatalf("tripped after %d failures, default threshold is 5", i+1)
		}
	}
	b.Failure(4)
	if b.State(4) != Open {
		t.Fatal("did not trip at the default threshold")
	}
	if w := b.RetryAfter(4); w != 64 {
		t.Fatalf("default open window = %d, want 64", w)
	}
}

func TestBreakerJitterDeterministicPerSeed(t *testing.T) {
	cfg := Config{Threshold: 1, OpenBase: 100, OpenMax: 10000, JitterFrac: 0.3, Seed: 7}
	windows := func() []simtime.Time {
		b := New("dom-0", cfg)
		var out []simtime.Time
		now := simtime.Time(0)
		for k := 0; k < 6; k++ {
			b.Failure(now)
			w := b.RetryAfter(now)
			out = append(out, w)
			now += w
			if !b.Allow(now) {
				t.Fatal("probe vetoed")
			}
		}
		return out
	}
	a, b := windows(), windows()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("window %d: %d vs %d — jitter not deterministic", i, a[i], b[i])
		}
		base := simtime.Time(100 << uint(i))
		if base > 10000 {
			base = 10000
		}
		lo := base - simtime.Time(0.3*float64(base))
		hi := base + simtime.Time(0.3*float64(base))
		if a[i] < lo || a[i] > hi {
			t.Fatalf("window %d = %d outside [%d,%d]", i, a[i], lo, hi)
		}
	}
	// Different names draw different jitter streams.
	c1, c2 := New("dom-0", cfg), New("dom-1", cfg)
	c1.Failure(0)
	c2.Failure(0)
	if c1.RetryAfter(0) == c2.RetryAfter(0) {
		t.Log("note: dom-0 and dom-1 happened to draw equal jitter (allowed, but suspicious)")
	}
}

func TestSetLazyCreationAndIteration(t *testing.T) {
	s := NewSet(Config{Threshold: 1, OpenBase: 10})
	if !s.Allow("b-dom", 0) || !s.Allow("a-dom", 0) {
		t.Fatal("fresh breakers must allow")
	}
	s.Failure("b-dom", 1)
	if s.Allow("b-dom", 2) {
		t.Fatal("tripped breaker allowed work")
	}
	if s.Allow("a-dom", 2) != true {
		t.Fatal("independent breaker affected")
	}
	st := s.States(2)
	if len(st) != 2 || st["a-dom"] != "closed" || st["b-dom"] != "open" {
		t.Fatalf("States() = %v", st)
	}
}

// TestFailureReportsTheClosedTrip: Failure reports a trip only when it opens
// a closed breaker, so its caller sees one trip per outage: not the failures
// below the threshold, a stale one inside the open window, or a half-open
// probe that re-trips; and again after a success closed the breaker.
func TestFailureReportsTheClosedTrip(t *testing.T) {
	b := New("d", Config{Threshold: 2, OpenBase: 10, OpenMax: 100})
	for _, s := range []struct {
		at   simtime.Time
		ok   bool // a Success instead of a Failure
		trip bool
	}{
		{at: 0}, {at: 1, trip: true}, // the threshold's failure trips
		{at: 5},            // stale: the window holds until 11
		{at: 11},           // half-open probe fails: a re-trip
		{at: 40},           // and again, after the doubled window
		{at: 80, ok: true}, // half-open probe succeeds: closed
		{at: 81}, {at: 82, trip: true},
	} {
		if s.ok {
			b.Success(s.at)
			continue
		}
		if got := b.Failure(s.at); got != s.trip {
			t.Fatalf("Failure(%d) = %v, want %v (state %v)", s.at, got, s.trip, b.State(s.at))
		}
	}
	if trips := b.tripsC.Value(); trips != 4 {
		t.Fatalf("grid_breaker_trips_total = %d, want 4", trips)
	}
}
