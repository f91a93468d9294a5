// Package faults generates deterministic fault schedules for the VO
// simulation: node outages (a node's local batch system crashes and loses
// its reservation book), domain outages (every node of a job-manager
// domain down at once), and mid-run task failures (a running task dies,
// breaking the advance-reservation guarantee).
//
// The paper treats "the environment changes" as the reason supporting
// schedules exist at all; this package makes those changes reproducible.
// A schedule is a pure function of (Config, environment shape): the
// injector in internal/metasched replays it through the simulation engine,
// so two runs with the same seed produce byte-identical traces.
//
// The per-node outage process is an alternating renewal process: up spans
// drawn exponential with mean MTBF, down spans exponential with mean MTTR
// (floored at 1 tick). Steady-state availability is therefore
// MTBF/(MTBF+MTTR). With probability DomainOutageProb a node outage
// escalates to its whole domain — the failure mode that forces
// metascheduler-level job reallocation rather than in-domain fallback.
package faults

import (
	"sort"

	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// Config tunes fault injection. The zero value disables everything: a VO
// run with a zero Config is byte-identical to one without fault support.
type Config struct {
	// MTBF is the mean model time a node stays up between outages.
	// Zero disables node and domain outages.
	MTBF float64
	// MTTR is the mean outage duration; outages last at least 1 tick.
	// Ignored when MTBF is zero.
	MTTR float64
	// DomainOutageProb is the probability that a node outage takes its
	// whole domain down with it.
	DomainOutageProb float64
	// TaskFailRate is the per-activation probability that a running job
	// loses a task mid-run. Zero disables task failures.
	TaskFailRate float64
	// MaxRetries bounds the retry/backoff recovery attempts after a
	// failure kills a running job; past it the job escalates to the
	// remaining supporting levels, then cross-domain reallocation, then
	// rejection.
	MaxRetries int
	// RetryBackoff is the base backoff delay; attempt k waits
	// RetryBackoff << (k-1). Zero defaults to DefaultBackoff.
	RetryBackoff simtime.Time
	// JitterFrac spreads each backoff delay uniformly over
	// [d−frac·d, d+frac·d] from a seeded stream, de-synchronizing retry
	// storms after a shared outage. Zero (the default) keeps the delays
	// exact and runs byte-identical to builds without jitter support.
	JitterFrac float64
	// Until is the model-time horizon of the outage schedule; no outage
	// starts at or after it. Required (>0) when MTBF is set.
	Until simtime.Time
	// Seed drives schedule generation and task-failure draws.
	Seed uint64
}

// DefaultBackoff is the base retry backoff when Config.RetryBackoff is 0.
const DefaultBackoff simtime.Time = 4

// OutagesEnabled reports whether the outage process is switched on.
func (c Config) OutagesEnabled() bool { return c.MTBF > 0 && c.Until > 0 }

// BackoffCap bounds every exponential backoff delay: large attempt counts
// saturate here instead of overflowing int64 into negative durations.
const BackoffCap = simtime.Infinity / 2

// Backoff returns the delay before retry attempt k (1-based), doubling
// per attempt from the configured base and saturating at BackoffCap.
func (c Config) Backoff(attempt int) simtime.Time {
	base := c.RetryBackoff
	if base <= 0 {
		base = DefaultBackoff
	}
	return ExpBackoff(base, attempt, BackoffCap)
}

// JitteredBackoff is Backoff with the configured JitterFrac applied from
// r's stream. With a zero JitterFrac (or nil r) it is exactly Backoff and
// draws nothing, so runs without jitter stay byte-identical.
func (c Config) JitteredBackoff(attempt int, r *rng.Source) simtime.Time {
	return Jitter(c.Backoff(attempt), c.JitterFrac, r)
}

// ExpBackoff returns base·2^(attempt−1) clamped to [base, max]. The shift
// count is capped before it can wrap: any attempt that would overflow
// int64 — or merely exceed max — saturates at max. attempt values below 1
// are treated as 1; a non-positive max falls back to BackoffCap.
func ExpBackoff(base simtime.Time, attempt int, max simtime.Time) simtime.Time {
	if base <= 0 {
		base = DefaultBackoff
	}
	if max <= 0 {
		max = BackoffCap
	}
	if base >= max {
		return max
	}
	if attempt < 1 {
		attempt = 1
	}
	// base < max ≤ int64 range, so the saturation point is the first shift
	// where base ≥ max>>shift; testing against max>>shift avoids ever
	// computing an overflowing base<<shift.
	shift := uint(attempt - 1)
	if shift >= 63 || base > max>>shift {
		return max
	}
	return base << shift
}

// Jitter spreads d uniformly over [d−frac·d, d+frac·d] using r's stream,
// never returning less than 1 tick. frac ≤ 0 or a nil r returns d exactly
// (and draws nothing); frac is clamped to 1. Both the recovery ladder's
// retry delays and the circuit breaker's open windows share this helper,
// so a single seeded stream de-correlates them consistently.
func Jitter(d simtime.Time, frac float64, r *rng.Source) simtime.Time {
	if frac <= 0 || r == nil || d <= 0 {
		return d
	}
	if frac > 1 {
		frac = 1
	}
	spread := simtime.Time(frac * float64(d))
	if spread <= 0 {
		return d
	}
	out := d - spread + simtime.Time(r.Int64n(2*int64(spread)+1))
	if out < 1 {
		out = 1
	}
	return out
}

// Availability returns the steady-state node availability implied by the
// outage process, or 1 when outages are disabled.
func (c Config) Availability() float64 {
	if c.MTBF <= 0 {
		return 1
	}
	mttr := c.MTTR
	if mttr < 1 {
		mttr = 1
	}
	return c.MTBF / (c.MTBF + mttr)
}

// ForAvailability returns the (MTBF, MTTR) pair realizing the given
// steady-state availability with the given mean repair time. Availability
// at or above 1 disables outages (MTBF 0).
func ForAvailability(avail, mttr float64) (mtbf, repair float64) {
	if avail >= 1 || avail <= 0 {
		return 0, mttr
	}
	return mttr * avail / (1 - avail), mttr
}

// Outage is one scheduled unavailability window. Domain is empty for an
// individual node crash; a non-empty Domain means every node of that
// domain is down for the interval (Node then names the node whose failure
// escalated).
type Outage struct {
	Node     resource.NodeID
	Domain   string
	Interval simtime.Interval
}

// Schedule generates the full outage list for env, sorted by start time
// (ties by node ID, domain outages after node outages at the same
// instant). Each node's process draws from its own seeded stream, so the
// schedule is independent of node iteration order and stable under
// environment growth.
func Schedule(cfg Config, env *resource.Environment) []Outage {
	if !cfg.OutagesEnabled() {
		return nil
	}
	mttr := cfg.MTTR
	if mttr < 1 {
		mttr = 1
	}
	var out []Outage
	for _, n := range env.Nodes() {
		r := rng.New(cfg.Seed).Split(0xFA17).Split(uint64(n.ID) + 1)
		t := simtime.Time(r.Exp(cfg.MTBF)) + 1
		for t < cfg.Until {
			dur := simtime.Time(r.Exp(mttr)) + 1
			o := Outage{Node: n.ID, Interval: simtime.Interval{Start: t, End: t + dur}}
			if r.Bool(cfg.DomainOutageProb) {
				o.Domain = n.Domain
			}
			out = append(out, o)
			t = o.Interval.End + simtime.Time(r.Exp(cfg.MTBF)) + 1
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Interval.Start != out[b].Interval.Start {
			return out[a].Interval.Start < out[b].Interval.Start
		}
		if (out[a].Domain == "") != (out[b].Domain == "") {
			return out[a].Domain == ""
		}
		return out[a].Node < out[b].Node
	})
	return out
}
