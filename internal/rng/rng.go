// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Experiments in this repository must be exactly reproducible from a seed:
// every subsystem receives an explicit *rng.Source (usually keyed by
// NewKeyed from the seed and its task) rather than sharing global state.
// The generator is xoshiro256** seeded through splitmix64, which has good
// statistical quality for simulation workloads and is trivially portable.
package rng

import "math"

// Source is a deterministic random number generator. It is not safe for
// concurrent use; give each goroutine its own, keyed with NewKeyed.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the seed expansion state and returns the next value.
// It is used only to initialize xoshiro state so that nearby seeds yield
// uncorrelated streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	r := new(Source)
	r.Seed(seed)
	return r
}

// Seed resets r to the stream New(seed) returns.
func (r *Source) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// NewKeyed returns a Source whose stream is a pure function of the
// (seed, keys...) tuple: the same tuple always yields the same stream and
// distinct tuples yield decorrelated streams. It is the parallel engine's
// replacement for a sequentially chained generator — a worker
// handling shard (window, shard) seeds NewKeyed(seed, window, shard) and
// gets a stream independent of which worker runs it and in what order,
// which is what makes sharded collection worker-count-invariant.
func NewKeyed(seed uint64, keys ...uint64) *Source {
	x := seed
	for _, k := range keys {
		// Fold each key through an independent splitmix64 expansion so the
		// combination is order-sensitive ((a,b) differs from (b,a)) and
		// adjacent key values land far apart in seed space.
		x = splitmix64(&x) ^ splitmix64(&k)
	}
	return New(x)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint64n returns a uniformly random integer in [0, n). It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless method with rejection to remove bias.
	hi, lo := mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = mul64(r.Uint64(), n)
		}
	}
	return hi
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Norm returns a standard normal variate using the polar Marsaglia method.
func (r *Source) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exp returns an exponential variate with rate 1.
func (r *Source) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}
