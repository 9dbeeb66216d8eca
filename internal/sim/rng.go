package sim

// Rand is a small, fast, deterministic PRNG (SplitMix64). It exists instead
// of math/rand for two reasons: the state is a single uint64 that can be
// checkpointed and restored (workload-generator state is architectural
// state under SafetyNet, so it must roll back with the registers), and the
// sequence is stable across Go releases.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is valid.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed + 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 pseudo-random bits.
//
//snvet:alloc-free
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a pseudo-random uint64 in [0, n), unbiased. It panics
// if n == 0. It is Below(NewBound(n)); a caller that draws from one
// range many times builds the Bound once.
func (r *Rand) Uint64n(n uint64) uint64 {
	return r.Below(NewBound(n))
}

// Bound is a range [0, n) prepared for Below: NewBound computes the
// rejection limit once, so a draw costs one modulo instead of three.
type Bound struct {
	n uint64
	// limit is the largest draw Below accepts.
	limit uint64
}

// NewBound prepares the range [0, n). It panics if n == 0.
//
// Below's rejection sampling discards draws from the incomplete block of
// residues at the top of the 64-bit range, which a bare modulo would
// fold onto the low residues. For the small n the simulator draws
// (working-set indices, jitter bounds) the rejection probability is
// ~n/2^64 — vanishingly rare, so existing seeded sequences are
// unchanged in practice — but for n approaching 2^64 the bare modulo
// would skew low residues by up to 2x.
func NewBound(n uint64) Bound {
	if n == 0 {
		panic("sim: NewBound with zero n")
	}
	// The top of the last complete block of n residues (all of the range
	// for a power of two). 2^64 mod n is computed in 64 bits as
	// ((2^64-1) mod n + 1) mod n.
	excess := (^uint64(0)%n + 1) % n
	return Bound{n: n, limit: ^uint64(0) - excess}
}

// Below returns a pseudo-random uint64 in [0, n) for the n that built b,
// unbiased: the draw Uint64n(n) would return.
//
//snvet:alloc-free
func (r *Rand) Below(b Bound) uint64 {
	if b.n&(b.n-1) == 0 { // power of two: the mask is exact
		return r.Uint64() & (b.n - 1)
	}
	for {
		v := r.Uint64()
		if v <= b.limit {
			return v % b.n
		}
	}
}

// Float64 returns a pseudo-random float64 in [0, 1).
//
//snvet:alloc-free
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
//
//snvet:alloc-free
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Snapshot returns the generator state for checkpointing.
func (r *Rand) Snapshot() uint64 { return r.state }

// Restore rewinds the generator to a snapshot taken earlier.
func (r *Rand) Restore(s uint64) { r.state = s }
