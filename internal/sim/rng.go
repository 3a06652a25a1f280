package sim

import "math"

// RNG is a small, fast, deterministic random number generator (PCG-XSH-RR
// 64/32). The experiments require reproducible randomness independent of
// the Go runtime's math/rand seeding behaviour, and frequently need many
// independent streams (one per flow, one per switch); PCG's (state,
// increment) pair gives cheap independent streams.
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMultiplier = 6364136223846793005

// NewRNG returns a generator seeded with seed on stream 0.
func NewRNG(seed uint64) *RNG {
	return NewRNGStream(seed, 0)
}

// NewRNGStream returns a generator seeded with seed on the given stream.
// Different streams with the same seed are statistically independent.
func NewRNGStream(seed, stream uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed, stream)
	return r
}

// Reseed reinitialises r in place to exactly the state NewRNGStream(seed,
// stream) would return, without allocating — the reseeding path pooled
// run instances use when a recycled network is re-keyed to a new seed.
func (r *RNG) Reseed(seed, stream uint64) {
	r.inc = stream<<1 | 1
	r.state = 0
	r.Uint32()
	r.state += seed
	r.Uint32()
}

// Split derives a new independent generator from this one, for giving each
// simulated entity its own stream without coordinating stream numbers.
func (r *RNG) Split() *RNG {
	return NewRNGStream(r.Uint64(), r.Uint64())
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive bound")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint32(n)
	threshold := -bound % bound
	for {
		v := r.Uint32()
		m := uint64(v) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1,
// for Poisson inter-arrival sampling.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomises the order of n elements using swap, as in
// math/rand.Shuffle (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Derangement returns a random permutation of [0, n) with no fixed points
// (p[i] != i for all i), used for permutation traffic matrices where a
// host must never send to itself. It panics if n < 2.
func (r *RNG) Derangement(n int) []int {
	if n < 2 {
		panic("sim: Derangement needs n >= 2")
	}
	// Rejection sampling: the probability a random permutation is a
	// derangement tends to 1/e, so a handful of attempts suffice.
	for {
		p := r.Perm(n)
		ok := true
		for i, v := range p {
			if v == i {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}
