// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the PUFatt simulation stack.
//
// Reproducibility is a first-class requirement for the experiments in this
// repository: every simulated chip, every challenge stream and every noise
// source must be independently re-derivable from a single experiment seed.
// The package therefore offers named substreams ("chip/3/vth",
// "challenges/fig3", ...) derived with SplitMix64 from a FNV-hashed label,
// feeding an xoshiro256** core generator.
//
// The generators here are NOT cryptographically secure; protocol nonces in
// package attest use crypto/rand instead.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances the state and returns the next output. It is used both
// for seeding xoshiro and for deriving substream seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv1a64 hashes a label to a 64-bit value (FNV-1a).
func fnv1a64(s string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Source is a deterministic xoshiro256** generator. The zero value is not
// valid; use New or Source.Sub to construct one.
type Source struct {
	seed uint64 // the construction seed; substream derivation uses this,
	// not the mutable state, so Sub results do not depend on how far the
	// parent stream has advanced.
	s [4]uint64
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// yield (with overwhelming probability) unrelated streams.
func New(seed uint64) *Source {
	src := &Source{}
	src.Reinit(seed)
	return src
}

// Reinit reseeds s in place, leaving it in exactly the state New(seed)
// constructs. It exists so hot loops (the parallel batch evaluator derives
// one noise stream per challenge) can reuse a worker-local Source instead of
// allocating one per item.
func (s *Source) Reinit(seed uint64) {
	s.seed = seed
	sm := seed
	for i := range s.s {
		s.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start in the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// Sub derives an independent substream identified by label. Calling Sub with
// the same label on an identically-seeded Source always yields the same
// stream, and different labels yield unrelated streams. Sub does not advance
// the parent stream.
func (s *Source) Sub(label string) *Source {
	return New(s.SubSeed(label))
}

// SubSeed returns the seed Sub(label) would construct its stream from,
// for callers that reinitialise a preallocated Source (see Reinit).
func (s *Source) SubSeed(label string) uint64 {
	mix := s.seed
	mix ^= bits.RotateLeft64(splitmix64(&mix), 17) ^ fnv1a64(label)
	return mix
}

// SubN derives an independent substream identified by label and an index,
// convenient for per-chip or per-gate streams.
func (s *Source) SubN(label string, n int) *Source {
	return New(s.SubSeedN(label, n))
}

// SubSeedN returns the seed SubN(label, n) would construct its stream from,
// for callers that reinitialise a preallocated Source (see Reinit). The
// batch evaluator uses it to derive a per-challenge noise stream with no
// allocation: deterministic in (parent seed, label, n) only, so results do
// not depend on which worker evaluates which item.
func (s *Source) SubSeedN(label string, n int) uint64 {
	mix := s.seed
	mix ^= bits.RotateLeft64(splitmix64(&mix), 17) ^ fnv1a64(label) ^ (0x9e3779b97f4a7c15 * uint64(n+1))
	return mix
}

// Uint64 returns the next 64 pseudo-random bits (xoshiro256**). The state
// update is written on locals so that the function stays within the
// compiler's inlining budget: the normal draws call it in their inner
// rejection loop.
func (s *Source) Uint64() uint64 {
	s0, s1 := s.s[0], s.s[1]
	s2, s3 := s.s[2]^s0, s.s[3]^s1
	s.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Uint32 returns the next 32 pseudo-random bits.
func (s *Source) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Uses Lemire's multiply-shift rejection method.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniformly distributed boolean.
func (s *Source) Bool() bool { return s.Uint64()&1 == 1 }

// Bit returns a uniformly distributed bit as a uint8 (0 or 1).
func (s *Source) Bit() uint8 { return uint8(s.Uint64() & 1) }

// polar runs the rejection loop of one Marsaglia polar draw and returns the
// accepted pair's u and q = u² + v². Norm, NormExceeds and SkipNorm all
// draw through it, so they consume the same uniforms and see the same q.
func (s *Source) polar() (u, q float64) {
	for {
		u = 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q = u*u + v*v
		if q > 0 && q < 1 {
			return u, q
		}
	}
}

// Norm returns a normally distributed float64 with mean 0 and standard
// deviation 1, using the Marsaglia polar method.
func (s *Source) Norm() float64 {
	u, q := s.polar()
	return u * math.Sqrt(-2*math.Log(q)/q)
}

// NormMS returns a normally distributed float64 with the given mean and
// standard deviation.
func (s *Source) NormMS(mean, sigma float64) float64 {
	return mean + sigma*s.Norm()
}

// SkipNorm advances the stream past one Norm draw without computing it:
// afterwards the stream is exactly where Norm would have left it.
func (s *Source) SkipNorm() { s.polar() }

// NormExceeds reports d + s.NormMS(0, sigma) > 0 — the sign of a jittered
// arbiter delta — and advances the stream exactly as NormMS does. It is
// exact, not an approximation: see exceeds for how it avoids the
// logarithm on all but a few percent of draws.
func (s *Source) NormExceeds(d, sigma float64) bool {
	u, q := s.polar()
	return exceeds(d, sigma, u, q)
}

// Operand ranges inside which exceeds decides from bounds. Within them
// every product it forms, and the literal draw it stands in for, stays a
// normal float64 (no overflow, no subnormal loss of relative precision).
const (
	exceedsMin = 0x1p-300
	exceedsMax = 0x1p300
)

// guardBand is the relative margin exceeds demands before trusting a
// bound. The literal draw carries a relative error of a few ulps (math.Log
// within one ulp, then a division, a square root and two products, each
// correctly rounded) and the bound comparisons a few more; 2⁻⁴⁰ ≈ 9·10⁻¹³
// exceeds their sum by over a thousandfold.
const guardBand = 0x1p-40

// exceeds decides d + σ·n > 0 for the polar draw n = u·√(−2 ln q / q), as
// the literal expression evaluates it in float64.
//
// Rounding a sum of two floats never changes its sign, so the literal
// result is the exact sign of d + x with x = fl(σ·n), and sign(x) =
// sign(u) for σ > 0. If |x| < |d|, or if u does not oppose d, the answer
// is d's sign; otherwise x wins and it is the opposite. |x| ≈ σ|u|·√(L/q)
// with L = −2 ln q, which the division-free bounds
//
//	4(1−q)/(1+q) ≤ L ≤ (1−q²)/q    (0 < q < 1)
//
// bracket. Squared and multiplied through by q², the comparisons need
// only products. A bound decides only if it clears |d| by guardBand,
// which covers the literal draw's rounding; 1−q² is formed as
// (1−q)(1+q) so it keeps full relative precision as q → 1. The upper
// bound is tried first: when |d| is large against σ it settles the vote
// whatever u's sign, and that branch predicts well. Whatever the bounds
// leave open, and every out-of-range operand, falls back to the literal
// expression.
func exceeds(d, sigma, u, q float64) bool {
	if sigma >= exceedsMin && sigma <= exceedsMax {
		if a := math.Abs(d); a >= exceedsMin && a <= exceedsMax {
			su := sigma * u
			s2 := su * su
			w, p := 1-q, 1+q
			aq := a * q
			if s2*w*p*(1+guardBand) < aq*aq { // upper bound: |x| < |d|
				return d > 0
			}
			if math.Signbit(d) == math.Signbit(u) { // u does not oppose d
				return d > 0
			}
			if 4*s2*w > aq*a*p*(1+guardBand) { // lower bound: |x| > |d|
				return d < 0
			}
		} else if d == 0 {
			// x > 0 iff u > 0: a nonzero polar u is at least 2⁻⁵², so
			// σ·n cannot underflow to zero in this σ range.
			return u > 0
		}
	}
	n := u * math.Sqrt(-2*math.Log(q)/q)
	// The explicit conversion rounds σ·n on its own, so no target may fuse
	// it with the addition into an FMA the literal NormMS path does not do.
	return d+float64(sigma*n) > 0
}

// Bits fills dst with independent uniform bits (one bit per element, values
// 0 or 1).
func (s *Source) Bits(dst []uint8) {
	var buf uint64
	var left int
	for i := range dst {
		if left == 0 {
			buf = s.Uint64()
			left = 64
		}
		dst[i] = uint8(buf & 1)
		buf >>= 1
		left--
	}
}

// Word returns a uniformly distributed n-bit word (n in [0,64]).
func (s *Source) Word(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return s.Uint64()
	}
	return s.Uint64() >> (64 - uint(n))
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
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
