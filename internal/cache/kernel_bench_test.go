package cache

import (
	"fmt"
	"testing"

	"cachepirate/internal/stats"
)

// benchAddrs builds a deterministic random address stream spanning span
// bytes at line granularity.
func benchAddrs(n int, span uint64) []Addr {
	rng := stats.NewRNG(42)
	addrs := make([]Addr, n)
	for i := range addrs {
		addrs[i] = Addr(rng.Uint64n(span/64) * 64)
	}
	return addrs
}

// BenchmarkCacheAccessHit measures the pure hit path: every access after
// the first pass hits, so the tag-match loop dominates.
func BenchmarkCacheAccessHit(b *testing.B) {
	c := MustNew(Config{Name: "b", Size: 256 << 10, Ways: 8, LineSize: 64, Policy: LRU, Owners: 1})
	addrs := benchAddrs(4096, 128<<10) // half the capacity: all resident
	for _, a := range addrs {
		if !c.Access(a, false, 0).Hit {
			c.Fill(a, 0, false, false)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], false, 0)
	}
}

// BenchmarkCacheAccessMissFill measures the miss path: the working set
// is 4x the capacity, so most accesses miss and fill, exercising victim
// selection and eviction accounting.
func BenchmarkCacheAccessMissFill(b *testing.B) {
	for _, pol := range []PolicyKind{LRU, PseudoLRU, Nehalem, Random} {
		b.Run(pol.String(), func(b *testing.B) {
			c := MustNew(Config{Name: "b", Size: 256 << 10, Ways: 8, LineSize: 64, Policy: pol, Owners: 1})
			addrs := benchAddrs(8192, 1<<20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := addrs[i%len(addrs)]
				if !c.Access(a, false, 0).Hit {
					c.Fill(a, 0, false, false)
				}
			}
		})
	}
}

// BenchmarkHierarchyAccess measures the full demand path through a
// three-level hierarchy under a working set that spills past the L3, so
// every level's probe/fill machinery runs.
func BenchmarkHierarchyAccess(b *testing.B) {
	h := MustNewHierarchy(HierarchyConfig{
		Cores: 1,
		L1:    Config{Name: "L1", Size: 32 << 10, Ways: 8, LineSize: 64, Policy: LRU, Owners: 1},
		L2:    Config{Name: "L2", Size: 256 << 10, Ways: 8, LineSize: 64, Policy: LRU, Owners: 1},
		L3:    Config{Name: "L3", Size: 2 << 20, Ways: 16, LineSize: 64, Policy: Nehalem, Owners: 1},
	})
	addrs := benchAddrs(16384, 8<<20) // 4x the L3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, addrs[i%len(addrs)], i&7 == 0)
	}
}

// BenchmarkHierarchyAccessResident is the all-hits variant: the working
// set fits in the L2, so after warm-up the L1/L2 hit path dominates —
// the common case of a loop-heavy trace.
func BenchmarkHierarchyAccessResident(b *testing.B) {
	h := MustNewHierarchy(HierarchyConfig{
		Cores: 1,
		L1:    Config{Name: "L1", Size: 32 << 10, Ways: 8, LineSize: 64, Policy: LRU, Owners: 1},
		L2:    Config{Name: "L2", Size: 256 << 10, Ways: 8, LineSize: 64, Policy: LRU, Owners: 1},
		L3:    Config{Name: "L3", Size: 2 << 20, Ways: 16, LineSize: 64, Policy: Nehalem, Owners: 1},
	})
	addrs := benchAddrs(2048, 128<<10)
	for _, a := range addrs {
		h.Access(0, a, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, addrs[i%len(addrs)], false)
	}
}

// BenchmarkHierarchyAccessScan measures the walk's longest path alone,
// the one a Pirate scanner takes on every access: a line-stride sweep
// by core 1 of the four-core Nehalem geometry over 2 MB — far past its
// L2, resident in the shared L3 — so each access misses L1 and L2, hits
// the L3, and fills both private levels.
func BenchmarkHierarchyAccessScan(b *testing.B) {
	h := MustNewHierarchy(HierarchyConfig{
		Cores: 4,
		L1:    Config{Name: "L1", Size: 32 << 10, Ways: 8, LineSize: 64, Policy: PseudoLRU},
		L2:    Config{Name: "L2", Size: 256 << 10, Ways: 8, LineSize: 64, Policy: PseudoLRU},
		L3:    Config{Name: "L3", Size: 8 << 20, Ways: 16, LineSize: 64, Policy: Nehalem},
	})
	const span = 2 << 20
	for a := Addr(0); a < span; a += 64 {
		h.Access(1, a, false)
	}
	b.ResetTimer()
	a := Addr(0)
	for i := 0; i < b.N; i++ {
		h.Access(1, a, false)
		if a += 64; a == span {
			a = 0
		}
	}
	if st := h.L3().Stats(1); st.Misses != span/64 {
		b.Fatalf("scan left the L3: %d misses, want the %d cold ones", st.Misses, span/64)
	}
}

// kernelSink keeps the set-kernel benchmarks' results live.
var kernelSink int

// BenchmarkPLRUTouchVictim measures the pseudo-LRU set kernels alone —
// one touch and one victim choice per iteration on a pseudo-random way,
// across 64 sets so the metadata words stay resident — on the table
// victim arm (8 ways, the L1/L2 geometry) and the descent arm (16).
func BenchmarkPLRUTouchVictim(b *testing.B) {
	for _, ways := range []int{8, 16} {
		b.Run(fmt.Sprintf("%dway", ways), func(b *testing.B) {
			c := MustNew(Config{Name: "b", Size: int64(64 * ways * 64), Ways: ways, LineSize: 64, Policy: PseudoLRU, Owners: 1})
			rng := stats.NewRNG(7)
			touched := make([]int, 4096)
			for i := range touched {
				touched[i] = rng.Intn(ways)
			}
			sum := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				si := uint64(i) & 63
				c.plruTouch(si, touched[i&4095])
				sum += c.plruVictim(si)
			}
			kernelSink = sum
		})
	}
}

// BenchmarkFindWay measures the tag match per arm — the two
// fixed-length scans and the generic loop (12 ways, a shrunk L3) — with
// the probed way rotating through the set.
func BenchmarkFindWay(b *testing.B) {
	for _, ways := range []int{8, 16, 12} {
		c := MustNew(Config{Name: "b", Size: int64(64 * ways * 64), Ways: ways, LineSize: 64, Policy: LRU, Owners: 1})
		for si := uint64(0); si < 64; si++ {
			for w := 0; w < ways; w++ {
				c.Fill(Addr((uint64(w)*64+si)*64), 0, false, false)
			}
		}
		b.Run(fmt.Sprintf("%dway", ways), func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				si := uint64(i) & 63
				w := (i >> 6) % ways
				tag := uint64(w)*64 + si
				sum += c.findWay(int(si)*ways, tag)
			}
			kernelSink = sum
		})
	}
}
