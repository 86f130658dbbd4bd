package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cachepirate/internal/stats"
)

// median returns the middle of xs (mean of the two middles for even counts),
// 0 for an empty slice.
func median(xs []float64) float64 {
	m, err := stats.Percentile(xs, 50)
	if err != nil {
		return 0 // only an empty slice fails
	}
	return m
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 of 200 samples is set by two of them, so the harness
// reports the highest percentile that still has ten samples above it.
const tailMinBeyond = 10

// tailAt returns the p-th percentile of xs (p in (0, 1]), lowered to the
// highest percentile that still has tailMinBeyond samples beyond it: p95 of
// 200 samples, p99.95 of 20 000. pct is the percentile actually returned. ok
// is false when even the median has too few samples beyond it.
func tailAt(xs []float64, p float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 2*tailMinBeyond+1 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(n))) - 1
	if max := n - tailMinBeyond - 1; i > max {
		i = max
	}
	return s[i], float64(i+1) / float64(n), true
}

func tailNote(pct float64, n int) string {
	return fmt.Sprintf("p%.4g of %d samples", pct*100, n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
