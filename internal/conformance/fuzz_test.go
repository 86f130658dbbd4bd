package conformance

import (
	"testing"
)

// FuzzKernel feeds arbitrary bytes through the total DecodeKernel
// mapping and replays the resulting stream through the SoA kernel and
// the Reference oracle. Any divergence or invariant violation fails;
// the failing input is a replayable corpus file
// (`conformance replay -target kernel <file>`).
func FuzzKernel(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ops := DecodeKernel(data)
		if d := ReplayKernel(cfg, ops); d != nil {
			t.Fatalf("kernel divergence:\n%s", d.Report(cfg, ops))
		}
	})
}

// FuzzHierarchy does the same for full multicore hierarchies: arbitrary
// bytes become a shape selection plus a multi-core stream of demand,
// non-temporal and coherent-store ops, replayed through cache.Hierarchy
// and the RefHierarchy oracle with L3 evictions back-invalidating every
// core and then only the victim's owner. Outcomes and every counter must
// agree after every op, every line periodically, and the hierarchy
// invariants (inclusivity, conservation, residency, outcome sanity)
// must hold throughout.
func FuzzHierarchy(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ops := DecodeHierarchy(data)
		if err := ReplayHierarchy(cfg, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzFusedHierarchy feeds arbitrary bytes through DecodeFused — a
// replica family by ways or by sets, of any policy, with or without a
// prefetcher — and replays the stream record by record through every
// replica of a cache.FusedHierarchy and through a 1-core
// cache.Hierarchy per replica. Outcome words and L3 counters must agree
// after every access (`conformance replay -target fused <file>`).
func FuzzFusedHierarchy(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fam, ops := DecodeFused(data)
		if err := ReplayFused(fam, ops); err != nil {
			t.Fatal(err)
		}
	})
}
