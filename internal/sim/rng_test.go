package sim

import (
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield the same sequence")
		}
	}
}

func TestRandSnapshotRestore(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	snap := r.Snapshot()
	first := make([]uint64, 20)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Restore(snap)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("replay diverged at %d: got %d want %d", i, got, first[i])
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(2)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRand(0).Intn(0)
}

func TestRandRoughUniformity(t *testing.T) {
	r := NewRand(99)
	const buckets, n = 8, 80000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("bucket %d count %d deviates >20%% from %d", b, c, want)
		}
	}
}

// TestUint64nUnbiased catches the modulo bias the rejection sampler
// fixes: for n just above 2^63, a bare `Uint64() % n` folds the top
// 2^63-1 values onto residues [0, 2^63-1), making the low quarter of the
// range twice as likely (observed frequency ~0.375 instead of 0.25). The
// unbiased sampler must stay near 0.25.
func TestUint64nUnbiased(t *testing.T) {
	r := NewRand(3)
	n := uint64(1)<<63 + 1
	const samples = 20000
	low := 0
	for i := 0; i < samples; i++ {
		v := r.Uint64n(n)
		if v >= n {
			t.Fatalf("Uint64n out of range: %d", v)
		}
		if v < n/4 {
			low++
		}
	}
	frac := float64(low) / samples
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("low-quarter frequency %.3f, want ~0.25 (a biased modulo gives ~0.375)", frac)
	}
}

// TestUint64nDistribution is the per-bucket sanity check over a small
// non-power-of-two modulus.
func TestUint64nDistribution(t *testing.T) {
	r := NewRand(4)
	const buckets, samples = 7, 70000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := samples / buckets
	for b, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", b, c, want)
		}
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(256); v >= 256 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

// Property: snapshot/restore is an exact replay for arbitrary prefixes.
func TestRandReplayProperty(t *testing.T) {
	f := func(seed uint64, skip uint8, n uint8) bool {
		r := NewRand(seed)
		for i := 0; i < int(skip); i++ {
			r.Uint64()
		}
		s := r.Snapshot()
		seq := make([]uint64, n)
		for i := range seq {
			seq[i] = r.Uint64()
		}
		r.Restore(s)
		for i := range seq {
			if r.Uint64() != seq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// frozenUint64n is Uint64n as it stood before Below took its body: the
// rejection limit recomputed on every draw. It is the reference that
// Below and Uint64n must match draw for draw.
func frozenUint64n(r *Rand, n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	if n&(n-1) == 0 { // power of two: mask is exact
		return r.Uint64() & (n - 1)
	}
	excess := (^uint64(0)%n + 1) % n
	limit := ^uint64(0) - excess
	for {
		v := r.Uint64()
		if v <= limit {
			return v % n
		}
	}
}

// TestBelowMatchesFrozenSampler draws 10,000 values per range and seed
// through Below, through Uint64n and through the frozen sampler, and
// requires equal draws and equal generator states after each one. At
// n = 2^63+1 about half the draws are rejected, so the rejection loop is
// compared too.
func TestBelowMatchesFrozenSampler(t *testing.T) {
	ns := []uint64{1, 2, 3, 5, 7, 1000, 1<<32 - 1, 1<<32 + 1, 1 << 63, 1<<63 + 1, ^uint64(0)}
	for _, n := range ns {
		b := NewBound(n)
		for _, seed := range []uint64{0, 1, 0xdeadbeef} {
			ref, below, un := NewRand(seed), NewRand(seed), NewRand(seed)
			for i := 0; i < 10_000; i++ {
				want := frozenUint64n(ref, n)
				if got := below.Below(b); got != want {
					t.Fatalf("n=%d seed=%d draw %d: Below = %d, frozen sampler %d", n, seed, i, got, want)
				}
				if got := un.Uint64n(n); got != want {
					t.Fatalf("n=%d seed=%d draw %d: Uint64n = %d, frozen sampler %d", n, seed, i, got, want)
				}
				if below.Snapshot() != ref.Snapshot() || un.Snapshot() != ref.Snapshot() {
					t.Fatalf("n=%d seed=%d draw %d: generator states diverged", n, seed, i)
				}
			}
		}
	}
}

// TestRejectionLoopRuns confirms that n = 2^63+1 exercises the rejection
// loop: the frozen sampler consumes about two raw draws per value.
func TestRejectionLoopRuns(t *testing.T) {
	r, raw := NewRand(1), NewRand(1)
	const draws = 10_000
	for i := 0; i < draws; i++ {
		frozenUint64n(r, 1<<63+1)
	}
	n := 0
	for raw.Snapshot() != r.Snapshot() {
		raw.Uint64()
		n++
	}
	if n < draws*18/10 || n > draws*22/10 {
		t.Fatalf("%d raw draws for %d values, want about twice as many", n, draws)
	}
}

func TestNewBoundZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBound(0) must panic")
		}
	}()
	NewBound(0)
}

// BenchmarkUint64n and BenchmarkBelow compare a draw that builds its
// bound with one that reuses it.
func BenchmarkUint64n(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64n(40_000)
	}
	_ = sink
}

func BenchmarkBelow(b *testing.B) {
	r, bound := NewRand(1), NewBound(40_000)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Below(bound)
	}
	_ = sink
}
