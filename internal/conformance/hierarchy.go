package conformance

import (
	"fmt"

	"cachepirate/internal/cache"
	"cachepirate/internal/prefetch"
	"cachepirate/internal/stats"
)

// HOp is one demand access of a hierarchy conformance stream.
type HOp struct {
	Core        int
	Addr        cache.Addr
	Write       bool
	NonTemporal bool
}

// hierarchyShapes are the bounded multicore shapes hierarchy streams
// draw from. They are deliberately tiny (whole hierarchies of a few KB)
// so fuzz inputs of a few hundred ops generate real capacity pressure,
// evictions and back-invalidations.
var hierarchyShapes = []cache.HierarchyConfig{
	{
		Cores: 2,
		L1:    cache.Config{Name: "L1", Size: 512, Ways: 2, LineSize: 64, Policy: cache.PseudoLRU, Owners: 1},
		L2:    cache.Config{Name: "L2", Size: 1 << 10, Ways: 2, LineSize: 64, Policy: cache.PseudoLRU, Owners: 1},
		L3:    cache.Config{Name: "L3", Size: 4 << 10, Ways: 4, LineSize: 64, Policy: cache.Nehalem, Owners: 2},
	},
	{
		Cores: 3,
		L1:    cache.Config{Name: "L1", Size: 512, Ways: 4, LineSize: 64, Policy: cache.LRU, Owners: 1},
		L2:    cache.Config{Name: "L2", Size: 2 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU, Owners: 1},
		L3:    cache.Config{Name: "L3", Size: 6 << 10, Ways: 8, LineSize: 64, Policy: cache.LRU, Owners: 3},
		// A live prefetcher covers the prefetch-fill and prefetch-hit
		// accounting paths (fetches > misses) under fuzz pressure.
		NewPrefetcher: func() prefetch.Prefetcher {
			return prefetch.NewStream(prefetch.StreamConfig{Streams: 4, Degree: 2, Confirm: 2})
		},
	},
	{
		Cores: 2,
		L1:    cache.Config{Name: "L1", Size: 512, Ways: 2, LineSize: 64, Policy: cache.Random, Owners: 1},
		L2:    cache.Config{Name: "L2", Size: 1 << 10, Ways: 4, LineSize: 64, Policy: cache.Random, Owners: 1},
		L3:    cache.Config{Name: "L3", Size: 8 << 10, Ways: 16, LineSize: 64, Policy: cache.Random, Owners: 2},
	},
	{
		// Pseudo-LRU at every level, at the associativities the shapes
		// above leave out: 8 ways (victim table, 8-entry tag scan), 16
		// (tree descent, 16-entry scan) and 32.
		Cores: 2,
		L1:    cache.Config{Name: "L1", Size: 1 << 10, Ways: 8, LineSize: 64, Policy: cache.PseudoLRU, Owners: 1},
		L2:    cache.Config{Name: "L2", Size: 2 << 10, Ways: 16, LineSize: 64, Policy: cache.PseudoLRU, Owners: 1},
		L3:    cache.Config{Name: "L3", Size: 8 << 10, Ways: 32, LineSize: 64, Policy: cache.PseudoLRU, Owners: 2},
	},
}

// HierarchyShape returns the i-th bounded hierarchy shape, with
// ok=false past the end — the campaign space of `conformance check`.
func HierarchyShape(i int) (cache.HierarchyConfig, bool) {
	if i < 0 || i >= len(hierarchyShapes) {
		return cache.HierarchyConfig{}, false
	}
	return hierarchyShapes[i], true
}

// hierarchyOpBytes is the encoded size of one hierarchy op.
const hierarchyOpBytes = 3

// DecodeHierarchy derives a hierarchy configuration and a multi-core
// demand stream from arbitrary bytes, total and deterministic like
// DecodeKernel. Addresses wrap at 8x the L3 capacity.
func DecodeHierarchy(data []byte) (cache.HierarchyConfig, []HOp) {
	cfg := hierarchyShapes[0]
	if len(data) == 0 {
		return cfg, nil
	}
	cfg = hierarchyShapes[int(data[0])%len(hierarchyShapes)]
	span := uint64(8 * cfg.L3.Size)
	body := data[1:]
	ops := make([]HOp, 0, len(body)/hierarchyOpBytes)
	for i := 0; i+hierarchyOpBytes <= len(body); i += hierarchyOpBytes {
		k, lo, hi := body[i], body[i+1], body[i+2]
		ops = append(ops, HOp{
			Core:        int(k&0x0F) % cfg.Cores,
			Addr:        cache.Addr((uint64(hi)<<8 | uint64(lo)) << 4 % span),
			Write:       k&0x40 != 0,
			NonTemporal: k&0x30 == 0x30, // 1 in 4 of the remaining bits
		})
	}
	return cfg, ops
}

// EncodeHierarchy is the inverse of DecodeHierarchy for in-range
// streams; used to write fuzz seed corpora.
func EncodeHierarchy(shape int, ops []HOp) []byte {
	out := make([]byte, 0, 1+len(ops)*hierarchyOpBytes)
	out = append(out, byte(shape%len(hierarchyShapes)))
	for _, op := range ops {
		k := byte(op.Core)
		if op.Write {
			k |= 0x40
		}
		if op.NonTemporal {
			k |= 0x30
		}
		slot := uint64(op.Addr) >> 4
		out = append(out, k, byte(slot), byte(slot>>8))
	}
	return out
}

// GenHOps produces a deterministic n-op multicore stream over cfg's
// address space: each core follows its own pattern so the shared L3
// sees mixed pressure (one core hammering a set while another sweeps is
// exactly the DoS-style contention the invariants must survive).
func GenHOps(rng *stats.RNG, cfg cache.HierarchyConfig, n int) []HOp {
	span := uint64(8 * cfg.L3.Size / cfg.L3.LineSize)
	sets := uint64(cfg.L3.Sets())
	ops := make([]HOp, 0, n)
	for i := 0; i < n; i++ {
		core := int(rng.Uint64n(uint64(cfg.Cores)))
		var la uint64
		switch Pattern(core) % numPatterns {
		case PatternSweep:
			la = uint64(i) % span
		case PatternHammer:
			la = rng.Uint64n(span/sets+1) * sets
		default:
			la = rng.Uint64n(span)
		}
		ops = append(ops, HOp{
			Core:        core,
			Addr:        cache.Addr(la * uint64(cfg.L3.LineSize)),
			Write:       rng.Uint64n(10) < 3,
			NonTemporal: rng.Uint64n(16) == 0,
		})
	}
	return ops
}

// ReplayHierarchy replays ops through a fresh hierarchy built from
// cfg, verifying the full hierarchy invariant set every checkEvery ops
// and at the end. The per-op Outcome is also sanity-checked (an access
// served by memory must read at least a line; L3 hits must not).
func ReplayHierarchy(cfg cache.HierarchyConfig, ops []HOp) error {
	h, err := cache.NewHierarchy(cfg)
	if err != nil {
		return fmt.Errorf("conformance: invalid hierarchy config: %w", err)
	}
	// Conformance streams share one address space across cores, so L3
	// evictions must probe every core's private caches to keep the
	// hierarchy inclusive.
	h.SetFullBackInvalidate(true)
	opts := CheckOptions{}
	for _, op := range ops {
		if op.NonTemporal {
			opts.AllowNonTemporal = true
		}
	}
	for i, op := range ops {
		var out cache.Outcome
		if op.NonTemporal {
			out = h.AccessNonTemporal(op.Core, op.Addr)
		} else {
			out = h.Access(op.Core, op.Addr, op.Write)
		}
		if out.ServedBy == cache.LevelMem && out.MemReadBytes < cfg.L3.LineSize {
			return fmt.Errorf("conformance: op %d: memory-served access read %d bytes (< line %d)",
				i, out.MemReadBytes, cfg.L3.LineSize)
		}
		if out.ServedBy != cache.LevelMem && out.MemReadBytes > 0 && out.Prefetches == 0 && !out.PrefetchHit {
			return fmt.Errorf("conformance: op %d: %s hit read %d bytes from memory",
				i, out.ServedBy, out.MemReadBytes)
		}
		if (i+1)%checkEvery == 0 {
			if err := CheckHierarchy(h, opts); err != nil {
				return fmt.Errorf("after op %d: %w", i, err)
			}
		}
	}
	return CheckHierarchy(h, opts)
}
