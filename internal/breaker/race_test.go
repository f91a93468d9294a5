package breaker

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simtime"
)

// trip drives b from closed to open with consecutive failures at now.
func trip(b *Breaker, now simtime.Time) {
	for i := 0; i < b.cfg.threshold(); i++ {
		b.Failure(now)
	}
}

// TestHalfOpenSingleProbeConcurrent pins the half-open contract under
// concurrency: when the open window expires, any number of simultaneous
// Allow callers may race for the probe slot, but exactly one wins it —
// every additional caller is refused until the probe resolves.
func TestHalfOpenSingleProbeConcurrent(t *testing.T) {
	b := New("dom", Config{Threshold: 3, OpenBase: 10, OpenMax: 10})
	trip(b, 0)
	if b.Allow(5) {
		t.Fatal("open breaker admitted work")
	}

	after := simtime.Time(11) // past the open window: half-open
	for round := 0; round < 50; round++ {
		const callers = 32
		var admitted atomic.Int64
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(callers)
		for i := 0; i < callers; i++ {
			go func() {
				defer done.Done()
				start.Wait()
				if b.Allow(after) {
					admitted.Add(1)
				}
			}()
		}
		start.Done()
		done.Wait()
		if got := admitted.Load(); got != 1 {
			t.Fatalf("round %d: %d concurrent callers admitted, want exactly 1 probe", round, got)
		}
		// Fail the probe: the breaker re-opens with a larger window; move
		// time past it so the next round races for a fresh probe slot.
		b.Failure(after)
		if b.Allow(after) {
			t.Fatalf("round %d: re-opened breaker admitted work", round)
		}
		after = after + b.RetryAfter(after) + 1
	}
}

// TestHalfOpenProbeSuccessClosesOnceConcurrent checks that a successful
// probe closes the breaker even while other goroutines hammer Allow.
func TestHalfOpenProbeSuccessClosesOnceConcurrent(t *testing.T) {
	b := New("dom", Config{Threshold: 2, OpenBase: 8, OpenMax: 8})
	trip(b, 0)
	now := simtime.Time(9)
	if !b.Allow(now) {
		t.Fatal("half-open breaker refused the first probe")
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Allow(now) // all must lose: the probe slot is taken
		}()
	}
	wg.Wait()
	b.Success(now)
	if got := b.State(now); got != Closed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow(now) {
		t.Fatal("closed breaker refused work")
	}
}

// TestBreakerStress interleaves every operation from many goroutines; the
// -race detector is the assertion, plus basic sanity on the counters.
func TestBreakerStress(t *testing.T) {
	s := NewSet(Config{Threshold: 3, OpenBase: 4, OpenMax: 64, JitterFrac: 0.2, Seed: 7})
	names := []string{"a", "b", "c"}
	const workers = 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := names[(w+i)%len(names)]
				now := simtime.Time(i)
				if s.Allow(n, now) {
					if (w+i)%3 == 0 {
						s.Failure(n, now)
					} else {
						s.Success(n, now)
					}
				} else {
					s.Get(n).RetryAfter(now)
				}
				_ = s.States(now)
			}
		}(w)
	}
	wg.Wait()
	for _, n := range names {
		b := s.Get(n)
		if trips, fails := b.tripsC.Value(), b.failsC.Value(); trips > fails {
			t.Fatalf("breaker %s: %d trips but only %d failures", n, trips, fails)
		}
	}
}

// TestSequentialDeterminism pins that two identically-seeded breakers fed
// the same sequential observation stream land in identical states — the
// locking must not perturb the deterministic path the simulation uses.
func TestSequentialDeterminism(t *testing.T) {
	run := func() []simtime.Time {
		b := New("dom", Config{Threshold: 2, OpenBase: 16, OpenMax: 256, JitterFrac: 0.3, Seed: 42})
		var windows []simtime.Time
		now := simtime.Time(0)
		for i := 0; i < 8; i++ {
			trip(b, now)
			windows = append(windows, b.RetryAfter(now))
			now += b.RetryAfter(now) + 1
			b.Allow(now)   // take the probe
			b.Failure(now) // fail it: reopen with the next window
			windows = append(windows, b.RetryAfter(now))
			now += b.RetryAfter(now) + 1
			b.Allow(now)
			b.Success(now) // close again
		}
		return windows
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("window %d: %d vs %d — jitter stream diverged", i, a[i], b[i])
		}
	}
}
