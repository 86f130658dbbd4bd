// Package analysis holds the data model and the analyses built on top
// of Cache Pirating measurements: metric-vs-cache-size curves, the
// throughput-scaling prediction of §I-A, and the fetch-ratio error
// metrics of Fig. 7.
package analysis

import (
	"fmt"
	"sort"

	"cachepirate/internal/stats"
)

// Point is one measurement: the Target's metrics with a given amount
// of shared cache available to it.
type Point struct {
	// CacheBytes is the shared cache capacity available to the Target.
	CacheBytes int64
	// CPI is cycles per instruction.
	CPI float64
	// BandwidthGBs is off-chip bandwidth consumption in GB/s.
	BandwidthGBs float64
	// FetchRatio is L3 fetches (incl. prefetch) per memory access.
	FetchRatio float64
	// MissRatio is demand L3 misses per memory access.
	MissRatio float64
	// PirateFetchRatio is the Pirate's own fetch ratio during the
	// measurement — the paper's accuracy feedback signal.
	PirateFetchRatio float64
	// Trusted is false when the Pirate's fetch ratio exceeded the
	// threshold (the grey regions of Fig. 6): the Pirate could not
	// hold the requested footprint, so the point is unreliable.
	Trusted bool
	// Samples is how many measurement intervals were averaged.
	Samples int
}

// Curve is a per-benchmark set of points, sorted by CacheBytes
// ascending.
type Curve struct {
	Name   string
	Points []Point
}

// Sort orders the points by cache size ascending.
func (c *Curve) Sort() {
	sort.Slice(c.Points, func(i, j int) bool {
		return c.Points[i].CacheBytes < c.Points[j].CacheBytes
	})
}

// Trusted returns only the trusted points.
func (c *Curve) Trusted() []Point {
	var out []Point
	for _, p := range c.Points {
		if p.Trusted {
			out = append(out, p)
		}
	}
	return out
}

// metric extracts one metric from a point.
type metric func(Point) float64

// Metric selectors for At and errors.
var (
	// CPIOf selects the CPI metric.
	CPIOf = func(p Point) float64 { return p.CPI }
	// BandwidthOf selects the bandwidth metric.
	BandwidthOf = func(p Point) float64 { return p.BandwidthGBs }
	// FetchRatioOf selects the fetch-ratio metric.
	FetchRatioOf = func(p Point) float64 { return p.FetchRatio }
	// MissRatioOf selects the miss-ratio metric.
	MissRatioOf = func(p Point) float64 { return p.MissRatio }
)

// At evaluates the chosen metric at an arbitrary cache size by linear
// interpolation over the curve's points (clamping outside the range).
func (c *Curve) At(cacheBytes int64, m metric) (float64, error) {
	if len(c.Points) == 0 {
		return 0, fmt.Errorf("analysis: empty curve %q", c.Name)
	}
	xs := make([]float64, len(c.Points))
	ys := make([]float64, len(c.Points))
	for i, p := range c.Points {
		xs[i] = float64(p.CacheBytes)
		ys[i] = m(p)
	}
	return stats.InterpAt(xs, ys, float64(cacheBytes))
}

// CPIAt is At with the CPI metric.
func (c *Curve) CPIAt(cacheBytes int64) (float64, error) { return c.At(cacheBytes, CPIOf) }

// BandwidthAt is At with the bandwidth metric.
func (c *Curve) BandwidthAt(cacheBytes int64) (float64, error) {
	return c.At(cacheBytes, BandwidthOf)
}

// FetchRatioAt is At with the fetch-ratio metric.
func (c *Curve) FetchRatioAt(cacheBytes int64) (float64, error) {
	return c.At(cacheBytes, FetchRatioOf)
}
