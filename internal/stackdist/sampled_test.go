package stackdist

import (
	"math"
	"testing"
	"unsafe"

	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// exactEqual asserts the sampled histogram equals the exact one value
// for value (every weight exactly 1.0, so float64 counts are exact
// integers).
func exactEqual(t *testing.T, got *SampledHistogram, want *Histogram) {
	t.Helper()
	if got.MaxDistance != len(want.Counts) {
		t.Fatalf("depth %d != %d", got.MaxDistance, len(want.Counts))
	}
	counts := dense(got)
	for d := range want.Counts {
		if counts[d] != float64(want.Counts[d]) {
			t.Fatalf("distance %d: sampled %v, exact %d", d, counts[d], want.Counts[d])
		}
	}
	if got.Overflow != float64(want.Overflow) {
		t.Errorf("overflow %v != %d", got.Overflow, want.Overflow)
	}
	if got.Cold != float64(want.Cold) {
		t.Errorf("cold %v != %d", got.Cold, want.Cold)
	}
	if got.Total != float64(want.Total) {
		t.Errorf("total %v != %d", got.Total, want.Total)
	}
	if got.Sampled != want.Total {
		t.Errorf("sampled %d != total %d", got.Sampled, want.Total)
	}
}

// TestSampledRateOneIsExact: at rate 1.0 the spatial filter passes
// every line and SHARDS degenerates to the full Mattson analysis — the
// sampled histogram must match Analyze bit for bit, and Adjust must be
// a no-op.
func TestSampledRateOneIsExact(t *testing.T) {
	const depth = 512
	for _, n := range []int{0, 1, 100, 20000} {
		tr := randTrace(96<<10, uint64(n)+5, n)
		want, err := Analyze(tr, depth)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SampledAnalyze(tr, SampledConfig{Rate: 1, MaxDistance: depth, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		exactEqual(t, got, want)
		if got.Rate != 1.0 {
			t.Errorf("n=%d: rate %v, want 1.0", n, got.Rate)
		}
		got.Adjust()
		exactEqual(t, got, want)
	}
}

// TestSampledEmptyTrace: a profiler that saw nothing reports zeros and
// a well-defined (zero) miss ratio.
func TestSampledEmptyTrace(t *testing.T) {
	h, err := SampledAnalyze(&trace.Trace{}, SampledConfig{Rate: 0.5, MaxDistance: 16})
	if err != nil {
		t.Fatal(err)
	}
	if h.Records != 0 || h.Sampled != 0 || h.Total != 0 || h.Cold != 0 {
		t.Fatalf("empty trace produced mass: %+v", h)
	}
	if mr := h.MissRatio(4); mr != 0 {
		t.Errorf("empty-profile miss ratio %v, want 0", mr)
	}
	if _, err := h.Percentile(0.5); err == nil {
		t.Error("Percentile on empty profile should error")
	}
}

// TestSampledSingleRepeatedAddress: one line touched n times has one
// cold access and n-1 reuses at distance 0, at any sampling rate that
// samples the line at all — and the rescaled totals estimate n.
func TestSampledSingleRepeatedAddress(t *testing.T) {
	const n = 1000
	tr := &trace.Trace{Records: make([]trace.Record, n)}
	for i := range tr.Records {
		tr.Records[i] = trace.Record{Addr: 0x4000}
	}
	h, err := SampledAnalyze(tr, SampledConfig{Rate: 1, MaxDistance: 8})
	if err != nil {
		t.Fatal(err)
	}
	if h.Cold != 1 || dense(h)[0] != n-1 || h.Overflow != 0 {
		t.Fatalf("single-line profile wrong: cold %v buckets %v overflow %v", h.Cold, h.Buckets, h.Overflow)
	}
	if mr := h.MissRatio(1); math.Abs(mr-1.0/n) > 1e-12 {
		t.Errorf("1-line cache miss ratio %v, want %v", mr, 1.0/n)
	}
}

// TestSampledAllUnique: a trace that never reuses a line is all cold
// mass — infinite distances — so every size misses 100%.
func TestSampledAllUnique(t *testing.T) {
	const n = 4096
	tr := &trace.Trace{Records: make([]trace.Record, n)}
	for i := range tr.Records {
		tr.Records[i] = trace.Record{Addr: uint64(i) * 64}
	}
	for _, rate := range []float64{1, 0.25} {
		h, err := SampledAnalyze(tr, SampledConfig{Rate: rate, MaxDistance: 64, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if h.Cold != h.Total {
			t.Errorf("rate %v: cold %v != total %v on a no-reuse trace", rate, h.Cold, h.Total)
		}
		if h.Overflow != 0 {
			t.Errorf("rate %v: overflow %v on a no-reuse trace", rate, h.Overflow)
		}
		if mr := h.MissRatio(1 << 20); h.Total > 0 && mr != 1 {
			t.Errorf("rate %v: all-unique miss ratio %v, want 1", rate, mr)
		}
		// The footprint estimator should land near the true 4096
		// distinct lines even from a quarter sample.
		if est := h.DistinctLines(); math.Abs(est-n) > n/5 {
			t.Errorf("rate %v: footprint estimate %v, want ~%d", rate, est, n)
		}
	}
}

// TestSampledEstimatesExact: on a mixed workload, the rate-sampled
// miss-ratio curve must track the exact fully-associative curve within
// a small tolerance at every capacity.
func TestSampledEstimatesExact(t *testing.T) {
	const depth = 2048
	tr := captureLines(workload.NewMix("m", 3,
		workload.Component{Gen: workload.NewHotCold(workload.HotColdConfig{Name: "hc", Span: 48 << 10, Skew: 0.2, Seed: 11}), Weight: 0.7},
		workload.Component{Gen: workload.NewSequential(workload.SequentialConfig{Name: "s", Span: 96 << 10, Elem: 64}), Weight: 0.3},
	), 60000)
	want, err := Analyze(tr, depth)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SampledAnalyze(tr, SampledConfig{Rate: 0.1, MaxDistance: depth, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, lines := range []int64{16, 64, 256, 512, 1024, 2048} {
		e, g := want.MissRatio(lines), got.MissRatio(lines)
		if math.Abs(e-g) > 0.05 {
			t.Errorf("capacity %d lines: sampled %v vs exact %v (|Δ| > 0.05)", lines, g, e)
		}
	}
	// Adjust reconciles the rescaled total with the true record count
	// without breaking the curve shape.
	got.Adjust()
	if math.Abs(got.Total-float64(got.Records)) > 1e-6 {
		t.Errorf("adjusted total %v, want %d", got.Total, got.Records)
	}
}

// TestTreeNodeBytes pins the per-node charge of TrackedBytes to the
// node's real size, so the O(cap) bound TestSampledFixedSizeBounds
// reads through TrackedBytes cannot drift from memory actually held.
func TestTreeNodeBytes(t *testing.T) {
	if got := unsafe.Sizeof(treeNode{}); got != treeNodeBytes {
		t.Errorf("treeNode is %d bytes, TrackedBytes charges %d", got, treeNodeBytes)
	}
}

// TestSampledFixedSizeBounds: SHARDS_adj must hold the tracked-line
// cap on a stream with an unbounded working set, keep adapting the
// rate downward, and still estimate the curve. Memory must be O(cap),
// not O(trace).
func TestSampledFixedSizeBounds(t *testing.T) {
	const cap = 256
	p, err := NewSampledProfiler(SampledConfig{MaxSampled: cap, MaxDistance: 4096, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bytesBefore := p.TrackedBytes()
	// 200k accesses over 100k distinct lines: far beyond the cap.
	rng := workload.NewRandomAccess(workload.RandomConfig{Name: "r", Span: 100_000 * 64, NInstr: 1, Seed: 9})
	blk := make([]trace.Record, 1000)
	for fed := 0; fed < 200_000; fed += len(blk) {
		for i := range blk {
			op := rng.Next()
			blk[i] = trace.Record{Addr: op.Addr, Write: op.Write}
		}
		p.Feed(blk)
		if p.Live() > cap {
			t.Fatalf("tracked lines %d exceed cap %d", p.Live(), cap)
		}
	}
	if p.TrackedBytes() != bytesBefore {
		t.Errorf("fixed-size profiler grew: %d -> %d bytes", bytesBefore, p.TrackedBytes())
	}
	if r := p.Rate(); r >= 1 || r <= 0 {
		t.Errorf("adaptive rate %v should have dropped into (0, 1)", r)
	}
	h := p.Histogram()
	h.Adjust()
	if h.Records != 200_000 {
		t.Fatalf("records %d", h.Records)
	}
	if math.Abs(h.Total-200_000) > 1 {
		t.Errorf("adjusted total %v, want 200000", h.Total)
	}
	// ~100k distinct lines; the footprint estimate should be within 20%.
	if est := h.DistinctLines(); est < 60_000 || est > 140_000 {
		t.Errorf("footprint estimate %v, want ~100k", est)
	}
}

// TestSampledDeterministicAcrossBlocks: feeding the same records in
// different block sizes (and through FeedSource) must produce
// bit-identical histograms — the streamed and in-memory analytic paths
// share one result.
func TestSampledDeterministicAcrossBlocks(t *testing.T) {
	tr := randTrace(64<<10, 17, 30000)
	cfgs := []SampledConfig{
		{Rate: 0.2, MaxDistance: 1024, Seed: 5},
		{MaxSampled: 128, MaxDistance: 1024, Seed: 5},
	}
	for _, cfg := range cfgs {
		want, err := SampledAnalyze(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 7, 1000} {
			p, err := NewSampledProfiler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(tr.Records); lo += chunk {
				hi := lo + chunk
				if hi > len(tr.Records) {
					hi = len(tr.Records)
				}
				p.Feed(tr.Records[lo:hi])
			}
			assertSampledIdentical(t, p.Histogram(), want)
		}
		p, err := NewSampledProfiler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.FeedSource(trace.NewReplayer(tr, false)); err != nil {
			t.Fatal(err)
		}
		assertSampledIdentical(t, p.Histogram(), want)

		// Reset must return the profiler to a pristine state.
		p.Reset()
		p.Feed(tr.Records)
		assertSampledIdentical(t, p.Histogram(), want)
	}
}

func assertSampledIdentical(t *testing.T, got, want *SampledHistogram) {
	t.Helper()
	if got.Sampled != want.Sampled || got.Records != want.Records {
		t.Fatalf("raw counts differ: sampled %d/%d records %d/%d",
			got.Sampled, want.Sampled, got.Records, want.Records)
	}
	if math.Float64bits(got.Total) != math.Float64bits(want.Total) ||
		math.Float64bits(got.Cold) != math.Float64bits(want.Cold) ||
		math.Float64bits(got.Overflow) != math.Float64bits(want.Overflow) ||
		math.Float64bits(got.Rate) != math.Float64bits(want.Rate) {
		t.Fatalf("aggregates differ: %+v vs %+v", got, want)
	}
	if got.MaxDistance != want.MaxDistance || len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("shape differs: depth %d/%d, %d/%d buckets",
			got.MaxDistance, want.MaxDistance, len(got.Buckets), len(want.Buckets))
	}
	for i, b := range want.Buckets {
		if got.Buckets[i].Dist != b.Dist || math.Float64bits(got.Buckets[i].Mass) != math.Float64bits(b.Mass) {
			t.Fatalf("bucket %d %+v != %+v", i, got.Buckets[i], b)
		}
	}
}

// TestSampledFeedAllocFree pins the profiling hot loop at zero
// allocations once the pooled state is warm: the second pass over the
// same records inserts no new lines, so the whole filter + splay-tree
// path must run entirely in pre-allocated memory.
func TestSampledFeedAllocFree(t *testing.T) {
	tr := randTrace(64<<10, 23, 20000)
	for _, cfg := range []SampledConfig{
		{Rate: 0.5, MaxDistance: 1024, Seed: 1},
		{MaxSampled: 256, MaxDistance: 1024, Seed: 1},
	} {
		p, err := NewSampledProfiler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Feed(tr.Records) // warm: pool, table, heap at steady state
		avg := testing.AllocsPerRun(20, func() {
			p.Feed(tr.Records)
		})
		if avg != 0 {
			t.Errorf("cfg %+v: sampled feed allocates %.2f allocs/run, want 0", cfg, avg)
		}
	}
}

// TestSampledConfigValidation rejects out-of-domain parameters.
func TestSampledConfigValidation(t *testing.T) {
	bad := []SampledConfig{
		{Rate: 0, MaxDistance: 8},                   // no rate, no cap
		{Rate: -0.5, MaxDistance: 8},                // negative
		{Rate: 1.5, MaxDistance: 8},                 // > 1
		{Rate: math.NaN(), MaxDistance: 8},          // NaN
		{Rate: 0.5},                                 // no depth
		{Rate: 0.5, MaxDistance: 8, MaxSampled: -1}, // negative cap
	}
	for i, cfg := range bad {
		if _, err := NewSampledProfiler(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
}

// TestSampledPercentileMatchesExact: at rate 1.0 the sampled
// working-set percentile equals the exact one.
func TestSampledPercentileMatchesExact(t *testing.T) {
	tr := randTrace(32<<10, 31, 20000)
	want, err := Analyze(tr, 1024)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SampledAnalyze(tr, SampledConfig{Rate: 1, MaxDistance: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		we, err := want.Percentile(q)
		if err != nil {
			t.Fatal(err)
		}
		ge, err := got.Percentile(q)
		if err != nil {
			t.Fatal(err)
		}
		if we != ge {
			t.Errorf("P%.0f: sampled %d, exact %d", q*100, ge, we)
		}
	}
}
