// Package rng provides a deterministic, splittable pseudo-random number
// generator and the distributions the simulator needs.
//
// Every source of randomness in the repository flows from a single seed
// through this package so that complete simulation runs are bit-for-bit
// reproducible. The generator is xoshiro256** seeded via SplitMix64, the
// combination recommended by the xoshiro authors; it is not cryptographically
// secure and must never be used for security purposes.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** generator.
//
// The zero value is NOT usable; construct with New or Split. Source is not
// safe for concurrent use: give each goroutine its own Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64, so that nearby seeds
// still produce uncorrelated streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros; SplitMix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Split derives an independent child generator from the current state. The
// parent advances, so successive Splits return distinct streams.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

// Seeded is New returning the Source by value instead of by pointer, so a
// short-lived generator for a keyed draw can live on the caller's stack.
// Seeded(s) and *New(s) are bit-identical.
//
//mlorass:hotpath
func Seeded(seed uint64) Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return src
}

// mix absorbs one word into a running SplitMix64-finalised key. Used by the
// KeyN helpers below; the fixed arity keeps key derivation allocation-free
// (a variadic signature would box the words into a slice).
//
//mlorass:hotpath
func mix(h, w uint64) uint64 {
	h += 0x9e3779b97f4a7c15
	z := h ^ w
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Key2 derives a draw key from a seed and two identity words. Keys feed
// Seeded so that a draw depends only on the intrinsic identities mixed in —
// never on how many draws other actors made before it — which is what makes
// concurrent simulation shards partition-invariant.
//
//mlorass:hotpath
func Key2(seed, a, b uint64) uint64 {
	return mix(mix(seed, a), b)
}

// Key3 derives a draw key from a seed and three identity words.
//
//mlorass:hotpath
func Key3(seed, a, b, c uint64) uint64 {
	return mix(mix(mix(seed, a), b), c)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's unbiased bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, using the polar Box–Muller method.
func (r *Source) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		if s := u*u + v*v; s < 1 && s != 0 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(N(mu, sigma)): a log-normal variate parameterised by
// the underlying normal's mean and standard deviation.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
