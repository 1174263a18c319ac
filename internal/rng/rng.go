// Package rng provides deterministic, splittable pseudo-random number
// streams used by every stochastic component in this repository.
//
// All dataset generation, simulation and sampling code takes an explicit
// *rng.Stream rather than using a global source, so that an entire
// experiment is bit-reproducible from a single root seed. Streams may be
// split into independent child streams (one per user, per node, per
// subsystem) without coordination; children derived from distinct labels
// are statistically independent.
//
// The generator is PCG-XSH-RR 64/32 bottom state with a 64-bit output mix
// (a.k.a. PCG64-like via two 32-bit halves), which is small, fast and has
// no shared state.
package rng

import (
	"math"
)

// Stream is a deterministic pseudo-random number stream. The zero value is
// not valid; construct streams with New or Stream.Split.
type Stream struct {
	state uint64
	inc   uint64 // stream selector; must be odd
}

// New returns a stream seeded from seed with the default sequence selector.
func New(seed uint64) *Stream {
	return NewSeq(seed, 0xda3e39cb94b95bdb)
}

// NewSeq returns a stream seeded from seed on the sequence identified by
// seq. Distinct sequences yield independent streams even for equal seeds.
func NewSeq(seed, seq uint64) *Stream {
	s := &Stream{inc: seq<<1 | 1}
	s.state = 0
	s.Uint64()
	s.state += seed
	s.Uint64()
	return s
}

const pcgMult = 6364136223846793005

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Stream) Uint64() uint64 {
	hi := s.next32()
	lo := s.next32()
	return uint64(hi)<<32 | uint64(lo)
}

// next32 advances the PCG-XSH-RR 64/32 generator one step.
func (s *Stream) next32() uint32 {
	old := s.state
	s.state = old*pcgMult + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Split derives an independent child stream. The child is a pure function
// of the parent's current state and the label, so splitting with distinct
// labels from the same parent state yields independent streams; the parent
// is advanced once per call so repeated splits also differ.
func (s *Stream) Split(label string) *Stream {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewSeq(s.Uint64()^h, h|1)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Range returns a uniform value in [lo, hi). It panics if hi < lo.
func (s *Stream) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Range called with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, using the Marsaglia polar method.
func (s *Stream) Norm(mean, stddev float64) float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(q)/q)
	}
}

// Exp returns an exponentially distributed value with the given mean.
// It panics if mean <= 0.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp called with non-positive mean")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Pareto returns a Pareto(xm, alpha) distributed value: support [xm, inf),
// density alpha*xm^alpha/x^(alpha+1). It panics unless xm > 0 and alpha > 0.
func (s *Stream) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("rng: Pareto requires xm > 0 and alpha > 0")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// TruncPareto returns a Pareto(xm, alpha) value truncated to [xm, max] by
// inverse-CDF sampling of the truncated distribution.
func (s *Stream) TruncPareto(xm, alpha, max float64) float64 {
	if max <= xm {
		return xm
	}
	// CDF of truncated Pareto: F(x) = (1-(xm/x)^a) / (1-(xm/max)^a).
	tail := 1 - math.Pow(xm/max, alpha)
	u := s.Float64() * tail
	return xm / math.Pow(1-u, 1/alpha)
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Poisson returns a Poisson-distributed value with the given mean, using
// Knuth's method for small means and normal approximation for large means.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := s.Norm(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
