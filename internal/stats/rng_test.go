package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRNGReseed(t *testing.T) {
	a := NewRNG(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = a.Uint64()
	}
	a.Reseed(7)
	for i := range first {
		if got := a.Uint64(); got != first[i] {
			t.Fatalf("reseeded stream diverged at %d: %d != %d", i, got, first[i])
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	a := NewRNG(0)
	if a.Uint64() == 0 && a.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestUint64nRange(t *testing.T) {
	r := NewRNG(99)
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(-1) did not panic")
		}
	}()
	NewRNG(1).Intn(-1)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	var acc Accumulator
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
		acc.Add(v)
	}
	if math.Abs(acc.Mean()-0.5) > 0.01 {
		t.Errorf("Float64 mean = %g, want ~0.5", acc.Mean())
	}
}

func TestUint64nRoughlyUniform(t *testing.T) {
	r := NewRNG(42)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d count %d deviates >5%% from %g", b, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, rawN int) bool {
		n := rawN % 64
		if n < 0 {
			n = -n
		}
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(17)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be hit much more than rank 50 under s=1.
	if counts[0] < 5*counts[50] {
		t.Errorf("zipf skew too weak: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Every draw must be in range (guaranteed by construction, check
	// nothing leaked past the table).
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 100000 {
		t.Errorf("lost samples: %d", total)
	}
}

// TestZipfGuideTableSameSamples: the guide table only narrows the
// search, so every variate must draw what the plain search over the
// whole table draws — on a million random variates, on both neighbours
// of every cell boundary (where a wrong bound would show first), and on
// both neighbours of every CDF step — for table sizes below, at and
// above a power of two, a single item, and flat to steep skews.
func TestZipfGuideTableSameSamples(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{1, 1}, {2, 0.5}, {3, 2}, {100, 1}, {1000, 0.01}, {4096, 0.6}, {4097, 0.8}, {16384, 0.8}, {65536, 0.5}, {50000, 3}} {
		z := NewZipf(NewRNG(uint64(tc.n)), tc.n, tc.s)
		check := func(v uint64) {
			t.Helper()
			if v >= 1<<53 {
				return // not a variate
			}
			want := z.search(float64(v)/(1<<53), 0, tc.n-1)
			if got := z.sample(v); got != want {
				t.Fatalf("n=%d s=%g: variate %d/2^53 draws %d, plain search %d", tc.n, tc.s, v, got, want)
			}
		}
		draws := 1_000_000
		if testing.Short() {
			draws = 100_000
		}
		rng := NewRNG(99)
		for i := 0; i < draws; i++ {
			check(rng.Uint64() >> 11)
		}
		for k := range z.guide {
			edge := uint64(k) << z.shift
			check(edge - 1) // wraps out of range at k = 0
			check(edge)
			check(edge + 1)
		}
		for _, c := range z.cdf {
			step := uint64(c * (1 << 53))
			check(step - 1)
			check(step)
			check(step + 1)
		}
		// Next must consume the generator exactly as before: one draw,
		// its top 53 bits.
		a, b := NewRNG(5), NewRNG(5)
		za := NewZipf(a, tc.n, tc.s)
		for i := 0; i < 1000; i++ {
			if got, want := za.Next(), za.search(b.Float64(), 0, tc.n-1); got != want {
				t.Fatalf("n=%d s=%g: draw %d = %d, plain search on Float64 %d", tc.n, tc.s, i, got, want)
			}
		}
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(NewRNG(1), 0, 1)
}

func TestMul64KnownValues(t *testing.T) {
	hi, lo := mul64(math.MaxUint64, math.MaxUint64)
	// (2^64-1)^2 = 2^128 - 2^65 + 1
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Errorf("mul64(max,max) = (%d,%d), want (%d,1)", hi, lo, uint64(math.MaxUint64-1))
	}
	hi, lo = mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Errorf("mul64(2^32,2^32) = (%d,%d), want (1,0)", hi, lo)
	}
}
