// Package stats provides small numeric helpers used throughout the
// simulator and the measurement harness: online accumulators, percentiles,
// linear interpolation and a deterministic pseudo-random number generator.
//
// Everything here is allocation-free on the hot paths and fully
// deterministic, which the machine model depends on for reproducible runs.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Accumulator keeps online summary statistics (count, mean, variance
// via Welford's algorithm, min and max). The zero value is ready to use.
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += float64(d * (x - a.mean)) // rounded: no FMA
}

// N returns the number of observations added so far.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the arithmetic mean, or 0 when empty.
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest observation, or 0 when empty.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 when empty.
func (a *Accumulator) Max() float64 { return a.max }

// Variance returns the unbiased sample variance, or 0 for fewer than
// two observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := float64(p / 100 * float64(len(s)-1)) // rounded: no FMA into frac
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac), nil // rounded: no FMA
}

// Lerp linearly interpolates y at x given the sample points (x0,y0) and
// (x1,y1). When the interval is degenerate or non-finite it returns y0.
func Lerp(x0, y0, x1, y1, x float64) float64 {
	if math.IsNaN(x0) || math.IsNaN(x1) || x1 == x0 {
		return y0
	}
	t := (x - x0) / (x1 - x0)
	return y0 + float64(t*(y1-y0)) // rounded: no FMA
}

// InterpAt evaluates the piecewise-linear function through the points
// (xs[i], ys[i]) at x. xs must be strictly increasing and the slices must
// have equal non-zero length. Values outside the range clamp to the
// nearest endpoint.
func InterpAt(xs, ys []float64, x float64) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, errors.New("stats: interp needs equal non-empty xs/ys")
	}
	if x <= xs[0] {
		return ys[0], nil
	}
	if x >= xs[len(xs)-1] {
		return ys[len(ys)-1], nil
	}
	i := sort.SearchFloat64s(xs, x)
	// xs[i-1] < x <= xs[i]
	return Lerp(xs[i-1], ys[i-1], xs[i], ys[i], x), nil
}
