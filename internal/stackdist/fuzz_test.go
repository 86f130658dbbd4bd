package stackdist

import (
	"bytes"
	"math"
	"testing"

	"cachepirate/internal/trace"
)

// FuzzSampledProfile feeds arbitrary trace files through the SHARDS
// profiler at a data-derived sampling configuration and checks the
// estimator's invariants on whatever decodes:
//
//   - every histogram bucket, the overflow, the cold mass and the
//     total are non-negative (distances cannot go negative, and the
//     Adjust clamp must hold);
//   - the rescaled mass decomposes exactly: counts + overflow + cold
//     = total;
//   - after Adjust, the rescaled total never exceeds the true record
//     count;
//   - the sparse histogram equals a dense accumulator (denseShards)
//     bit for bit, in every mode;
//   - at rate 1.0 the profile degenerates to the exact Mattson
//     histogram bit for bit.
//
// The seed is the valid three-record v2 stream FuzzRead also starts
// from; malformed framings are FuzzRead's to seed, since they only
// reach the Skip below. The sampling configuration is derived from a
// byte sum of the input, so the fuzzer explores rate, fixed-size, and
// exact modes as it mutates.
func FuzzSampledProfile(f *testing.F) {
	f.Add([]byte{})
	var valid bytes.Buffer
	seed := &trace.Trace{Records: []trace.Record{
		{NInstr: 3, Addr: 0x1240, Write: true},
		{Addr: 64},
		{NInstr: 1, Addr: 0x40_0000},
	}}
	if err := seed.WriteV2Frames(&valid, 2); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			t.Skip() // malformed framing is FuzzRead's department
		}
		var mode uint8
		for _, b := range data {
			mode += b
		}
		cfg := SampledConfig{MaxDistance: 256, Seed: uint64(mode)}
		switch mode % 3 {
		case 0:
			cfg.Rate = 1
		case 1:
			cfg.Rate = float64(mode%100+1) / 100
		case 2:
			cfg.MaxSampled = int(mode%64) + 1
		}
		h := sampledProfile(t, tr.Records, cfg)
		checkSampledInvariants(t, h)
		if h.Records != uint64(tr.Len()) {
			t.Fatalf("records %d, trace has %d", h.Records, tr.Len())
		}
		ref := newDenseShards(cfg)
		ref.feed(tr.Records)
		assertMatchesDense(t, h, ref)

		h.Adjust()
		checkSampledInvariants(t, h)
		if h.Total > float64(h.Records)*(1+1e-9) {
			t.Fatalf("adjusted total %v exceeds record count %d", h.Total, h.Records)
		}

		if cfg.Rate == 1 && cfg.MaxSampled == 0 {
			exact, err := Analyze(tr, cfg.MaxDistance)
			if err != nil {
				t.Fatal(err)
			}
			counts := dense(h)
			for d := range exact.Counts {
				if counts[d] != float64(exact.Counts[d]) {
					t.Fatalf("rate-1.0 counts[%d] = %v, exact %d", d, counts[d], exact.Counts[d])
				}
			}
			if h.Overflow != float64(exact.Overflow) || h.Cold != float64(exact.Cold) {
				t.Fatalf("rate-1.0 tails diverge: %v/%v vs %d/%d", h.Overflow, h.Cold, exact.Overflow, exact.Cold)
			}
		}
	})
}

// checkSampledInvariants asserts non-negativity and exact mass
// decomposition of a sampled histogram.
func checkSampledInvariants(t *testing.T, h *SampledHistogram) {
	t.Helper()
	var sum float64
	for i, b := range h.Buckets {
		if b.Mass < 0 || math.IsNaN(b.Mass) {
			t.Fatalf("bucket %+v has negative mass", b)
		}
		if b.Dist < 0 || b.Dist >= int64(h.MaxDistance) || (i > 0 && b.Dist <= h.Buckets[i-1].Dist) {
			t.Fatalf("bucket %d at distance %d: not ascending within [0, %d)", i, b.Dist, h.MaxDistance)
		}
		sum += b.Mass
	}
	if h.Overflow < 0 || h.Cold < 0 || h.Total < 0 {
		t.Fatalf("negative mass: overflow %v cold %v total %v", h.Overflow, h.Cold, h.Total)
	}
	if total := sum + h.Overflow + h.Cold; math.Abs(total-h.Total) > 1e-6*(1+h.Total) {
		t.Fatalf("mass leak: counts+overflow+cold = %v, total %v", total, h.Total)
	}
}
