// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// The simulator must produce byte-identical experiment output for a given
// seed regardless of Go version, so we implement splitmix64 (Steele et al.,
// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014) instead of
// depending on math/rand's unspecified stream. Splitting lets independent
// subsystems (workload generation, per-job randomness, environment events)
// draw from decorrelated streams without sharing mutable state.
package rng

import "math"

// Source is a deterministic splitmix64 generator. The zero value is a valid
// generator seeded with 0; prefer New for explicit seeding.
type Source struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent generator from the current state, keyed by
// label so that identical call sites with different labels produce
// decorrelated streams. The parent stream advances once.
func (s *Source) Split(label uint64) *Source {
	return &Source{state: s.Uint64() ^ (label * 0x9e3779b97f4a7c15)}
}

// SplitN pre-splits n child streams, advancing the parent n times. It is
// exactly equivalent to calling Split(0), Split(1), …, Split(n-1) in
// order, which is how the sequential experiment loops derive their per-unit
// streams — so a caller that pre-splits before fanning units out across
// goroutines hands every unit the byte-identical stream it would have seen
// sequentially, regardless of goroutine scheduling.
func (s *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split(uint64(i))
	}
	return out
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded draws.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Int64n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Source) Int64n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int64n with non-positive n")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int64(hi)
		}
	}
}

// IntBetween returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (s *Source) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("rng: IntBetween with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Int64Between returns a uniform int64 in [lo, hi] inclusive.
// It panics if hi < lo.
func (s *Source) Int64Between(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: Int64Between with hi < lo")
	}
	return lo + s.Int64n(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Between returns a uniform float64 in [lo, hi).
// It panics if hi < lo.
func (s *Source) Float64Between(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Float64Between with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean,
// suitable for Poisson inter-arrival times. Mean must be positive.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	// Draw u in (0,1] so that log(u) is finite.
	u := 1.0 - s.Float64()
	return -mean * math.Log(u)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}
