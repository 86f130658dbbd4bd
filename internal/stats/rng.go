package stats

import (
	"math"
	"math/bits"
)

// RNG is a deterministic xorshift64* pseudo-random number generator.
// It is the only randomness source in the repository: the machine model,
// the synthetic workloads and the property tests all seed it explicitly,
// which makes every simulation bit-reproducible.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to
// a fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Reseed resets the generator to the given seed.
func (r *RNG) Reseed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r.state = seed
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n(0)")
	}
	// Multiply-shift reduction: the high word of the 128-bit product,
	// one hardware multiply. Bias is negligible for the simulator's
	// purposes (n << 2^64) and keeps the generator branch-free.
	hi, _ := bits.Mul64(r.Uint64(), n)
	return hi
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n): a Fisher-Yates
// shuffle of the identity, drawing Intn(i+1) for i = n-1 down to 1.
// Elements are uint32, 4 B each, so n may not exceed 2^32.
func (r *RNG) Perm(n int) []uint32 {
	if n < 0 || uint64(n) > 1<<32 {
		panic("stats: Perm with n outside [0, 2^32]")
	}
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf draws values in [0, n) following a Zipf-like distribution with
// exponent s using inverse-CDF sampling over a precomputed table.
// It models hot/cold access skew in the synthetic workloads.
//
// The sample for a uniform variate u is the smallest i with cdf[i] >= u.
// A guide table (the cutpoint method) narrows the search: [0, 1) is cut
// into K equal cells, K the power of two at or above n, and guide[k]
// holds the sample for u = k/K. Samples never decrease as u grows, so a
// variate in cell k has its sample in [guide[k], guide[k+1]] — on
// average a line or two of the table where a search from scratch takes
// log2(n) cache-missing steps — and the same search over that range
// returns the same value. A variate is 53 random bits over 2^53, so its
// cell is the top log2(K) of those bits, exactly.
type Zipf struct {
	cdf   []float64
	guide []uint32
	shift uint // 53 - log2(K): variate bits to cell index
	rng   *RNG
}

// NewZipf builds a Zipf sampler over n items with exponent s (> 0).
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 || uint64(n) > math.MaxUint32 {
		panic("stats: NewZipf with n outside [1, 2^32)")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / zipfWeight(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	lgK := uint(bits.Len(uint(n - 1)))
	cells := 1 << lgK
	guide := make([]uint32, cells+1)
	i := 0
	for k := range guide {
		// k/cells is exact (a power-of-two divisor), and so the bound is.
		u := float64(k) / float64(cells)
		for i < n-1 && cdf[i] < u {
			i++
		}
		guide[k] = uint32(i)
	}
	return &Zipf{cdf: cdf, guide: guide, shift: 53 - lgK, rng: rng}
}

// Next returns the next sample in [0, len(cdf)).
func (z *Zipf) Next() int {
	return z.sample(z.rng.Uint64() >> 11) // the 53 bits RNG.Float64 uses
}

// sample returns the sample for the uniform variate v / 2^53.
func (z *Zipf) sample(v uint64) int {
	k := v >> z.shift
	return z.search(float64(v)/(1<<53), int(z.guide[k]), int(z.guide[k+1]))
}

// search returns the smallest i in [lo, hi] with cdf[i] >= u, or hi if
// there is none below it; over [0, len(cdf)-1] that is u's sample.
func (z *Zipf) search(u float64, lo, hi int) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zipfWeight returns math.Pow(x, s), bit for bit, for the table's
// arguments. For a finite x >= 1 and 0 < s < 1, Pow (math/pow.go, which
// every platform but s390x runs) skips its special cases and runs one
// of three fixed sequences, written out here without its
// Modf/Frexp/Ldexp dispatch:
//   - s < 0.5: Exp(s*Log(x)), then Ldexp by 0;
//   - s = 0.5: Sqrt(x);
//   - s > 0.5: Exp((s-1)*Log(x)) times x = x1*2^xe (Frexp), as
//     Ldexp(a*x1, xe); scaling by 2^xe is exact, so that is a*x rounded
//     once. s-1 is exact for s in (0.5, 1), as Pow's yf-- is.
//
// Exp and Log are the exported functions Pow calls, so whichever path
// they take at run time (amd64's FMA Exp), both sides take it. Any other
// argument goes to math.Pow.
func zipfWeight(x, s float64) float64 {
	switch {
	case !(x >= 1 && x <= math.MaxFloat64 && s > 0 && s < 1):
		return math.Pow(x, s)
	case s < 0.5:
		return math.Exp(s * math.Log(x))
	case s == 0.5:
		return math.Sqrt(x)
	default:
		return math.Exp((s-1)*math.Log(x)) * x
	}
}
