package federation

import (
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// backoff paces the retries of one owner with jittered exponential
// delays. The router reads only delay, for the timer that requeues a send;
// a shard's member glue waits in retry, which ends early when the member
// stops. Several of the owner's goroutines may use it at once; they share
// the seeded jitter stream.
type backoff struct {
	base, limit time.Duration
	stop        <-chan struct{} // closed when the owner shuts down; nil for the router

	mu sync.Mutex
	r  *rng.Source
}

// jitterFrac spreads every federation backoff wait by ±20 %.
const jitterFrac = 0.2

// newBackoff applies the federation defaults: base 100ms when unset, the
// caller's own default limit.
func newBackoff(base, limit, defaultLimit time.Duration, r *rng.Source, stop <-chan struct{}) *backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if limit <= 0 {
		limit = defaultLimit
	}
	return &backoff{base: base, limit: limit, stop: stop, r: r}
}

// delay computes the jittered exponential wait for a 1-based attempt, at
// millisecond resolution.
func (b *backoff) delay(attempt int) time.Duration {
	base := b.base / time.Millisecond
	if base < 1 {
		base = 1
	}
	ms := faults.ExpBackoff(simtime.Time(base), attempt, simtime.Time(b.limit/time.Millisecond))
	b.mu.Lock()
	ms = faults.Jitter(ms, jitterFrac, b.r)
	b.mu.Unlock()
	return time.Duration(ms) * time.Millisecond
}

// wait sleeps out the given attempt's delay. It reports false when the
// owner stopped first: the caller should return instead of retrying.
func (b *backoff) wait(attempt int) bool {
	t := time.NewTimer(b.delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-b.stop:
		return false
	}
}

// retry calls try with attempt 1, 2, … until it reports done, sleeping out
// each attempt's delay in between. It reports false when the owner stopped
// first.
func (b *backoff) retry(try func(attempt int) (done bool)) bool {
	for attempt := 1; !try(attempt); attempt++ {
		if !b.wait(attempt) {
			return false
		}
	}
	return true
}
