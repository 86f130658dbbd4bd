package stackdist

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// dense expands a sparse histogram into a MaxDistance-long mass array.
func dense(h *SampledHistogram) []float64 {
	out := make([]float64, h.MaxDistance)
	for _, b := range h.Buckets {
		out[b.Dist] = b.Mass
	}
	return out
}

// denseShards is a naive SHARDS model with a dense histogram: the
// sampled lines sit in a plain most-recent-first list (a line's stack
// distance is its index), fixed-size mode evicts by scanning for the
// largest hash, and every distance has its own float64 bucket. It
// shares only the hash and the threshold arithmetic with
// SampledProfiler, so a bucket the sparse table sums out of order or
// loses shows up as a bit difference.
type denseShards struct {
	cfg       SampledConfig
	seed      uint64
	threshold uint64
	invRate   float64
	recent    []uint64          // sampled lines, most recent first
	hash      map[uint64]uint64 // sampled line -> its 24-bit hash
	counts    []float64
	overflow  float64
	cold      float64
	total     float64
}

func newDenseShards(cfg SampledConfig) *denseShards {
	if cfg.Rate == 0 {
		cfg.Rate = 1
	}
	if cfg.LineShift == 0 {
		cfg.LineShift = 6
	}
	r := &denseShards{
		cfg:    cfg,
		seed:   cfg.Seed * 0x9E3779B97F4A7C15,
		hash:   map[uint64]uint64{},
		counts: make([]float64, cfg.MaxDistance),
	}
	r.threshold = max(1, uint64(math.Round(cfg.Rate*sampleModulus)))
	r.invRate = sampleModulus / float64(r.threshold)
	return r
}

func (r *denseShards) feed(recs []trace.Record) {
	for _, rec := range recs {
		line := rec.Addr >> r.cfg.LineShift
		h := mix64(line^r.seed) >> (64 - sampleModBits)
		if h >= r.threshold {
			continue
		}
		w := r.invRate
		if k := slices.Index(r.recent, line); k >= 0 {
			if d := int64(float64(k) * w); d < int64(len(r.counts)) {
				r.counts[d] += w
			} else {
				r.overflow += w
			}
			r.recent = slices.Insert(slices.Delete(r.recent, k, k+1), 0, line)
		} else {
			r.recent = slices.Insert(r.recent, 0, line)
			r.hash[line] = h
			r.cold += w
			if r.cfg.MaxSampled > 0 && len(r.recent) > r.cfg.MaxSampled {
				var newT uint64
				for _, l := range r.recent {
					newT = max(newT, r.hash[l])
				}
				r.recent = slices.DeleteFunc(r.recent, func(l uint64) bool { return r.hash[l] >= newT })
				r.threshold = newT
				if newT > 0 {
					r.invRate = sampleModulus / float64(newT)
				}
			}
		}
		r.total += w
	}
}

// assertMatchesDense checks h bit for bit against the dense model's
// buckets and tails.
func assertMatchesDense(t *testing.T, h *SampledHistogram, ref *denseShards) {
	t.Helper()
	if h.MaxDistance != len(ref.counts) {
		t.Fatalf("depth %d, dense %d", h.MaxDistance, len(ref.counts))
	}
	for i, b := range h.Buckets {
		if i > 0 && b.Dist <= h.Buckets[i-1].Dist {
			t.Fatalf("buckets not ascending at %d: %d after %d", i, b.Dist, h.Buckets[i-1].Dist)
		}
	}
	got := dense(h)
	for d, want := range ref.counts {
		if math.Float64bits(got[d]) != math.Float64bits(want) {
			t.Fatalf("distance %d: sparse %v, dense %v", d, got[d], want)
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"overflow", h.Overflow, ref.overflow}, {"cold", h.Cold, ref.cold}, {"total", h.Total, ref.total}} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s: sparse %v, dense %v", c.name, c.got, c.want)
		}
	}
}

// sparseTestTrace mixes a skewed hot set, a streaming scan with four
// accesses per line and uniform noise, so distances spread from 0 far
// past MaxDistance.
func sparseTestTrace(n int, span int64) *trace.Trace {
	return captureLines(workload.NewMix("m", 4,
		workload.Component{Gen: workload.NewHotCold(workload.HotColdConfig{Name: "hc", Span: span / 4, Skew: 0.2, Seed: 3}), Weight: 0.5},
		workload.Component{Gen: workload.NewSequential(workload.SequentialConfig{Name: "s", Span: span, Elem: 16}), Weight: 0.3},
		workload.Component{Gen: workload.NewRandomAccess(workload.RandomConfig{Name: "r", Span: span, NInstr: 1, Seed: 5}), Weight: 0.2},
	), n)
}

// TestSampledSparseMatchesDense pins the sparse histogram to a dense
// accumulator, Float64bits-equal per distance and in Overflow, Cold and
// Total: fixed-rate mode at four rates, and fixed-size mode with a cap
// small enough that the threshold, and so the weight, drops while the
// stream is fed. Records go in uneven blocks, so the hot run stops and
// the tables grow between blocks and inside them.
func TestSampledSparseMatchesDense(t *testing.T) {
	// minBuckets makes the distance table grow: at R = 0.3 the weight
	// 2^24/5033165 is no integer, so growth must carry inexact masses.
	cases := []struct {
		cfg        SampledConfig
		n          int
		span       int64
		minBuckets int
	}{
		{SampledConfig{Rate: 0.01, MaxDistance: 1 << 12, Seed: 1}, 200_000, 4 << 20, 1},
		{SampledConfig{Rate: 0.25, MaxDistance: 1 << 10, Seed: 2}, 40_000, 1 << 20, 1},
		{SampledConfig{Rate: 0.3, MaxDistance: 1 << 13, Seed: 2}, 40_000, 2 << 20, 4 * initialMassSlots},
		{SampledConfig{Rate: 1, MaxDistance: 1 << 11, Seed: 3}, 20_000, 256 << 10, 4 * initialMassSlots},
		{SampledConfig{MaxSampled: 48, MaxDistance: 1 << 12, Seed: 4}, 40_000, 1 << 20, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("rate=%g/max=%d", tc.cfg.Rate, tc.cfg.MaxSampled), func(t *testing.T) {
			tr := sparseTestTrace(tc.n, tc.span)
			p, err := NewSampledProfiler(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			blocks := []int{1, 999, 7, 4096, 333}
			for lo, i := 0, 0; lo < tr.Len(); i++ {
				hi := min(tr.Len(), lo+blocks[i%len(blocks)])
				p.Feed(tr.Records[lo:hi])
				lo = hi
			}
			ref := newDenseShards(tc.cfg)
			ref.feed(tr.Records)
			h := p.Histogram()
			if len(h.Buckets) < tc.minBuckets || h.Overflow == 0 {
				t.Fatalf("trace too tame: %d buckets, overflow %v", len(h.Buckets), h.Overflow)
			}
			if tc.cfg.MaxSampled > 0 && h.Rate >= 0.5 {
				t.Fatalf("fixed-size rate only fell to %v", h.Rate)
			}
			assertMatchesDense(t, h, ref)
			checkDerivedMatchDense(t, h)
		})
	}
}

// The dense forms of Adjust, MissRatio and Percentile, as they read
// before the histogram went sparse.

func denseAdjust(counts []float64, overflow, cold, total *float64, records uint64) {
	want := float64(records)
	diff := want - *total
	if diff >= 0 {
		if len(counts) > 0 {
			counts[0] += diff
		} else {
			*overflow += diff
		}
		*total = want
		return
	}
	if len(counts) > 0 && counts[0] >= -diff {
		counts[0] += diff
		*total = want
		return
	}
	if *total > 0 {
		f := want / *total
		for i := range counts {
			counts[i] *= f
		}
		*overflow *= f
		*cold *= f
		*total = want
	}
}

func denseMissRatio(counts []float64, total float64, capacityLines int64) float64 {
	if total <= 0 {
		return 0
	}
	if capacityLines <= 0 {
		return 1
	}
	var hits float64
	for d := int64(0); d < min(capacityLines, int64(len(counts))); d++ {
		hits += counts[d]
	}
	return 1 - hits/total
}

func densePercentile(counts []float64, p float64) (int64, bool) {
	var finite float64
	for _, c := range counts {
		finite += c
	}
	if finite <= 0 {
		return 0, false
	}
	target := p * finite
	var acc float64
	for d, c := range counts {
		acc += c
		if acc >= target {
			return int64(d), true
		}
	}
	return int64(len(counts) - 1), true
}

// checkDerivedMatchDense compares MissRatio and Percentile with their
// dense forms, then Adjust, then both again on the adjusted histogram.
func checkDerivedMatchDense(t *testing.T, h *SampledHistogram) {
	t.Helper()
	counts := dense(h)
	overflow, cold, total := h.Overflow, h.Cold, h.Total
	compare := func(stage string) {
		t.Helper()
		for _, c := range []int64{-1, 0, 1, 2, 7, 100, int64(h.MaxDistance) - 1, int64(h.MaxDistance), 1 << 40} {
			got, want := h.MissRatio(c), denseMissRatio(counts, total, c)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: MissRatio(%d) = %v, dense %v", stage, c, got, want)
			}
		}
		for _, q := range []float64{0, 0.001, 0.1, 0.5, 0.9, 0.999, 1} {
			got, err := h.Percentile(q)
			want, ok := densePercentile(counts, q)
			if (err == nil) != ok || got != want {
				t.Fatalf("%s: Percentile(%g) = %d (err %v), dense %d (ok %v)", stage, q, got, err, want, ok)
			}
		}
	}
	compare("raw")
	h.Adjust()
	denseAdjust(counts, &overflow, &cold, &total, h.Records)
	got := dense(h)
	for d := range counts {
		if math.Float64bits(got[d]) != math.Float64bits(counts[d]) {
			t.Fatalf("adjusted distance %d: sparse %v, dense %v", d, got[d], counts[d])
		}
	}
	if math.Float64bits(h.Overflow) != math.Float64bits(overflow) ||
		math.Float64bits(h.Cold) != math.Float64bits(cold) ||
		math.Float64bits(h.Total) != math.Float64bits(total) {
		t.Fatalf("adjusted tails: sparse %v/%v/%v, dense %v/%v/%v", h.Overflow, h.Cold, h.Total, overflow, cold, total)
	}
	compare("adjusted")
}

// TestSampledAdjustPercentileMatchDense walks every branch of Adjust
// and Percentile's fallback on hand-built histograms: the drift folded
// into a missing or present distance-0 bucket, the clamp falling back
// to proportional rescaling, and a histogram whose infinite mass makes
// a zero percentile's target NaN.
func TestSampledAdjustPercentileMatchDense(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name    string
		buckets []Bucket
		tails   [3]float64 // overflow, cold, total
		records uint64
	}{
		{"undershoot, no distance 0", []Bucket{{3, 10}, {9, 5}}, [3]float64{2, 4, 21}, 30},
		{"undershoot onto distance 0", []Bucket{{0, 3}, {5, 1.5}}, [3]float64{0, 1, 5.5}, 9},
		{"overshoot absorbed", []Bucket{{0, 8}, {2, 2}}, [3]float64{1, 1, 12}, 9},
		{"overshoot rescaled", []Bucket{{0, 1}, {2, 2}}, [3]float64{1, 1, 5}, 2},
		{"overshoot, no distance 0", []Bucket{{1, 4}, {6, 2}}, [3]float64{0, 3, 9}, 5},
		{"exact", []Bucket{{0, 2}, {1, 3}}, [3]float64{0, 1, 6}, 6},
		{"empty", nil, [3]float64{0, 0, 0}, 0},
		{"infinite mass", []Bucket{{2, inf}, {4, 1}}, [3]float64{0, 0, inf}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &SampledHistogram{
				Buckets:     slices.Clone(tc.buckets),
				MaxDistance: 16,
				Overflow:    tc.tails[0],
				Cold:        tc.tails[1],
				Total:       tc.tails[2],
				Records:     tc.records,
			}
			checkDerivedMatchDense(t, h)
		})
	}
}

// TestSampledSparseAllocBound pins that the dense histogram is gone: a
// rate-0.01 profile at MaxDistance 1<<20 used to allocate an 8 MB
// bucket array and copy it into the snapshot; now construction, the
// whole pass and Histogram allocate under 1 MB in total.
func TestSampledSparseAllocBound(t *testing.T) {
	tr := sparseTestTrace(100_000, 4<<20)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := NewSampledProfiler(SampledConfig{Rate: 0.01, MaxDistance: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Feed(tr.Records)
	h := p.Histogram()
	runtime.ReadMemStats(&after)
	if len(h.Buckets) == 0 {
		t.Fatal("profile has no buckets")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("rate-0.01 profile allocated %d bytes, want < 1 MB", alloc)
	}
}
