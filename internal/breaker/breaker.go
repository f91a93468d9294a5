// Package breaker implements a per-resource circuit breaker: the service
// layer's "stop sending work there" rung on top of the metascheduler's
// retry → fallback → reallocate recovery ladder (see internal/metasched).
//
// One Breaker guards one resource — here, a job-manager domain. It is a
// three-state machine over consecutive failure observations:
//
//	closed    — healthy; work flows, consecutive failures are counted.
//	open      — quarantined after Threshold consecutive failures; all work
//	            is vetoed until the open window expires. Each consecutive
//	            trip doubles the window (seeded-jitter exponential backoff,
//	            shared with the recovery ladder via faults.ExpBackoff and
//	            faults.Jitter), so a persistently bad domain is probed
//	            geometrically less often.
//	half-open — the window expired; a single probe job is allowed through.
//	            Its success closes the breaker and resets the trip count;
//	            its failure re-opens it with the next larger window.
//
// Time is the caller's model time (simtime.Time): in the in-process
// simulation the breaker advances with the engine clock, which keeps every
// transition deterministic and replayable. Breakers are safe for
// concurrent use — the federation router drives per-shard breakers from
// concurrent heartbeat and handoff handlers — and a sequential caller
// (the engine goroutine) observes exactly the unlocked behavior, so the
// deterministic simulation stays byte-identical.
package breaker

import (
	"fmt"
	"sync"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// State is a breaker's position in the quarantine cycle.
type State int

// The breaker states.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config tunes the breaker. The zero value is usable: every field falls
// back to its default.
type Config struct {
	// Threshold is the number of consecutive failures that trips a closed
	// breaker open. Default 5.
	Threshold int
	// OpenBase is the first open window's length in model ticks; trip k
	// holds OpenBase·2^(k−1), capped at OpenMax. Default 64.
	OpenBase simtime.Time
	// OpenMax caps the exponential open window. Default 4096.
	OpenMax simtime.Time
	// JitterFrac spreads each open window by ±frac (seeded, deterministic)
	// so breakers tripped by one shared outage do not re-probe in
	// lock-step. Zero disables jitter.
	JitterFrac float64
	// Seed drives the jitter stream. Breakers created via a Set derive a
	// per-name stream from it, so a fleet of domains jitters independently
	// but reproducibly.
	Seed uint64

	// Telemetry is the registry that keeps each breaker's trips, observed
	// failures and current state as grid_breaker_* series labelled by the
	// breaker name. The handles are acquired once at New, so a state
	// transition costs one atomic op. nil keeps them in a private registry.
	Telemetry *telemetry.Registry
}

func (c Config) threshold() int {
	if c.Threshold <= 0 {
		return 5
	}
	return c.Threshold
}

func (c Config) openBase() simtime.Time {
	if c.OpenBase <= 0 {
		return 64
	}
	return c.OpenBase
}

func (c Config) openMax() simtime.Time {
	if c.OpenMax <= 0 {
		return 4096
	}
	return c.OpenMax
}

// Breaker guards one resource. Create with New or through a Set.
type Breaker struct {
	cfg Config
	r   *rng.Source

	mu       sync.Mutex
	state    State
	fails    int          // consecutive failures while closed
	trips    int          // consecutive open episodes (resets on close)
	until    simtime.Time // open window expiry
	inflight bool         // a half-open probe is outstanding

	// Telemetry handles, acquired once at New: the only tally of trips and
	// failures.
	tripsC *telemetry.Counter
	failsC *telemetry.Counter
	stateG *telemetry.Gauge
}

// New returns a closed breaker named name.
func New(name string, cfg Config) *Breaker {
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	l := telemetry.L("name", name)
	return &Breaker{
		cfg:    cfg,
		r:      rng.New(cfg.Seed).Split(hashName(name)),
		tripsC: reg.Counter("grid_breaker_trips_total", "times the breaker opened", l),
		failsC: reg.Counter("grid_breaker_failures_total", "failures the breaker observed", l),
		stateG: reg.Gauge("grid_breaker_state", "breaker state: 0 closed, 1 open, 2 half-open", l),
	}
}

// hashName folds a name into a split label (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// State returns the breaker's state at model time now, resolving an
// expired open window to HalfOpen.
func (b *Breaker) State(now simtime.Time) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked(now)
}

func (b *Breaker) stateLocked(now simtime.Time) State {
	if b.state == Open && now >= b.until {
		return HalfOpen
	}
	return b.state
}

// Allow reports whether work may be sent to the resource at model time
// now. In the half-open state only one probe may be outstanding at a
// time; Allow returning true for a probe marks it in flight until the
// next Success or Failure observation — under concurrency, exactly one
// of any number of simultaneous callers wins the probe slot.
func (b *Breaker) Allow(now simtime.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.stateLocked(now) {
	case Closed:
		return true
	case Open:
		return false
	default: // HalfOpen
		if b.state == Open {
			// The window just expired; transition for real.
			b.state = HalfOpen
			b.inflight = false
			b.stateG.Set(2)
		}
		if b.inflight {
			return false
		}
		b.inflight = true
		return true
	}
}

// Success records a successful unit of work finishing at model time now.
func (b *Breaker) Success(now simtime.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.stateLocked(now) {
	case Closed:
		b.fails = 0
	case HalfOpen:
		b.state = Closed
		b.inflight = false
		b.fails = 0
		b.trips = 0
		b.stateG.Set(0)
	case Open:
		// A success from work admitted before the trip; it neither closes
		// nor extends the quarantine.
	}
}

// Failure records a failed unit of work at model time now. Tripping (from
// closed after Threshold consecutive failures, or from half-open on any
// probe failure) opens the breaker for an exponentially growing,
// jittered window. It reports whether this failure tripped a closed
// breaker: once per outage, however often a half-open probe re-trips it.
func (b *Breaker) Failure(now simtime.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failsC.Inc()
	switch b.stateLocked(now) {
	case Closed:
		b.fails++
		if b.fails >= b.cfg.threshold() {
			b.trip(now)
			return true
		}
	case HalfOpen:
		b.state = HalfOpen
		b.inflight = false
		b.trip(now)
	case Open:
		// Stale failure from work admitted before the trip; the window is
		// already in force.
	}
	return false
}

// trip opens the breaker at now with the next backoff window.
func (b *Breaker) trip(now simtime.Time) {
	b.trips++
	b.tripsC.Inc()
	b.stateG.Set(1)
	window := faults.ExpBackoff(b.cfg.openBase(), b.trips, b.cfg.openMax())
	window = faults.Jitter(window, b.cfg.JitterFrac, b.r)
	b.state = Open
	b.until = now + window
	b.fails = 0
	b.inflight = false
}

// RetryAfter returns how long from now until the breaker would next admit
// work — zero when it already would.
func (b *Breaker) RetryAfter(now simtime.Time) simtime.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stateLocked(now) == Open {
		return b.until - now
	}
	return 0
}

// Set manages one breaker per named resource, created lazily with a
// shared config and per-name seeded jitter streams. Safe for concurrent
// use.
type Set struct {
	cfg Config

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewSet returns an empty set.
func NewSet(cfg Config) *Set {
	return &Set{cfg: cfg, m: make(map[string]*Breaker)}
}

// Get returns the breaker for name, creating it closed on first use.
func (s *Set) Get(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		b = New(name, s.cfg)
		s.m[name] = b
	}
	return b
}

// Allow is Get(name).Allow(now).
func (s *Set) Allow(name string, now simtime.Time) bool { return s.Get(name).Allow(now) }

// Success is Get(name).Success(now).
func (s *Set) Success(name string, now simtime.Time) { s.Get(name).Success(now) }

// Failure is Get(name).Failure(now).
func (s *Set) Failure(name string, now simtime.Time) bool { return s.Get(name).Failure(now) }

// States returns every breaker's state at now, keyed by name.
func (s *Set) States(now simtime.Time) map[string]string {
	s.mu.Lock()
	breakers := make(map[string]*Breaker, len(s.m))
	for n, b := range s.m {
		breakers[n] = b
	}
	s.mu.Unlock()
	out := make(map[string]string, len(breakers))
	for n, b := range breakers {
		out[n] = b.State(now).String()
	}
	return out
}
