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
	// Coherent marks a store from a shared-address-space context: the
	// write-invalidate step (InvalidateRemoteCopies) follows the access.
	// It has no effect on reads and non-temporal ops.
	Coherent bool
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
	{
		// The accessed-bit policy at the private levels too, four owners,
		// and the geometry of a shrunk L3: 12 ways (the generic tag scan)
		// over 10 sets (a modulo set index, not a mask), with a second
		// kind of prefetcher filling on every demand miss.
		Cores:         4,
		L1:            cache.Config{Name: "L1", Size: 512, Ways: 4, LineSize: 64, Policy: cache.Nehalem, Owners: 1},
		L2:            cache.Config{Name: "L2", Size: 1 << 10, Ways: 8, LineSize: 64, Policy: cache.Nehalem, Owners: 1},
		L3:            cache.Config{Name: "L3", Size: 10 * 12 * 64, Ways: 12, LineSize: 64, Policy: cache.Nehalem, Owners: 4},
		NewPrefetcher: func() prefetch.Prefetcher { return prefetch.NewNextLine() },
	},
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
			Coherent:    k&0x80 != 0,
		})
	}
	return cfg, ops
}

// EncodeHierarchy is the inverse of DecodeHierarchy for in-range
// streams; used to build FuzzHierarchy's seeds.
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
		if op.Coherent {
			k |= 0x80
		}
		slot := uint64(op.Addr) >> 4
		out = append(out, k, byte(slot), byte(slot>>8))
	}
	return out
}

// GenHOps produces a deterministic n-op multicore stream over cfg's
// address space: each core follows its own pattern so the shared L3
// sees mixed pressure (one core hammering a set while another sweeps is
// exactly the DoS-style contention the invariants must survive). One op
// in three goes back to a line some core touched recently, so private
// hits, L2-served L1 fills and stores to lines a sibling caches all
// occur at a useful rate beside the misses.
func GenHOps(rng *stats.RNG, cfg cache.HierarchyConfig, n int) []HOp {
	span := uint64(8 * cfg.L3.Size / cfg.L3.LineSize)
	sets := uint64(cfg.L3.Sets())
	ops := make([]HOp, 0, n)
	var recent [32]uint64
	for i := 0; i < n; i++ {
		core := int(rng.Uint64n(uint64(cfg.Cores)))
		var la uint64
		switch {
		case rng.Uint64n(3) == 0:
			la = recent[rng.Uint64n(uint64(len(recent)))]
		case Pattern(core)%numPatterns == PatternSweep:
			la = uint64(i) % span
		case Pattern(core)%numPatterns == PatternHammer:
			la = rng.Uint64n(span/sets+1) * sets
		default:
			la = rng.Uint64n(span)
		}
		recent[i%len(recent)] = la
		ops = append(ops, HOp{
			Core:        core,
			Addr:        cache.Addr(la * uint64(cfg.L3.LineSize)),
			Write:       rng.Uint64n(10) < 3,
			NonTemporal: rng.Uint64n(16) == 0,
			Coherent:    rng.Uint64n(4) == 0,
		})
	}
	return ops
}

// HierarchyHarness replays hierarchy op streams through cache.Hierarchy
// and the RefHierarchy oracle side by side.
type HierarchyHarness struct {
	Cfg cache.HierarchyConfig
	// FullBackInval makes L3 evictions probe every core's private caches,
	// as the machine does once a shared address space is attached.
	// Conformance streams share one address space across cores, so only
	// then does the hierarchy stay inclusive; without it the replay is
	// still compared step for step, and every invariant but inclusivity
	// still checked.
	FullBackInval bool
	// InjectAt, when >= 0, fills a line no stream touches into the
	// production side's L3 just before that op index — a planted bug
	// proving the harness catches real divergence (as
	// KernelHarness.InjectAt does).
	InjectAt int
}

// ReplayHierarchy replays ops through a fresh hierarchy built from cfg
// and through the reference walk, with L3 evictions back-invalidating
// every core and then only the victim's owner. After every op the two
// sides' Outcome and every level's per-owner statistics must be equal;
// every checkEvery ops and at the end so must every line's place, tag,
// owner, dirty and prefetch bits, and the hierarchy invariant set
// (inclusivity, conservation, residency, demand chain) must hold.
func ReplayHierarchy(cfg cache.HierarchyConfig, ops []HOp) error {
	for _, full := range []bool{true, false} {
		if err := (HierarchyHarness{Cfg: cfg, FullBackInval: full, InjectAt: -1}).Replay(ops); err != nil {
			return fmt.Errorf("full back-invalidate %v: %w", full, err)
		}
	}
	return nil
}

// Replay runs the harness over ops, returning the first divergence or
// invariant violation.
func (hh HierarchyHarness) Replay(ops []HOp) error {
	cfg := hh.Cfg
	h, err := cache.NewHierarchy(cfg)
	if err != nil {
		return fmt.Errorf("conformance: invalid hierarchy config: %w", err)
	}
	ref, err := NewRefHierarchy(cfg)
	if err != nil {
		return fmt.Errorf("conformance: invalid hierarchy config: %w", err)
	}
	h.SetFullBackInvalidate(hh.FullBackInval)
	ref.SetFullBackInvalidate(hh.FullBackInval)
	opts := CheckOptions{NonInclusive: !hh.FullBackInval}
	for _, op := range ops {
		if op.NonTemporal {
			opts.AllowNonTemporal = true
		}
	}
	check := func(i int) error {
		err := compareHierarchyLines(ref, h)
		if err == nil {
			err = CheckHierarchy(h, opts)
		}
		if err != nil {
			return fmt.Errorf("after op %d: %w", i, err)
		}
		return nil
	}
	for i, op := range ops {
		if i == hh.InjectAt {
			// Planted divergence: a fill the oracle never sees, one
			// stream span (8x the L3) above the op's own line.
			h.L3().Fill(op.Addr+cache.Addr(8*cfg.L3.Size), cache.Owner(op.Core), false, false)
		}
		var out, want cache.Outcome
		if op.NonTemporal {
			out = h.AccessNonTemporal(op.Core, op.Addr)
			want = ref.AccessNonTemporal(op.Core, op.Addr)
		} else {
			out = h.Access(op.Core, op.Addr, op.Write)
			want = ref.Access(op.Core, op.Addr, op.Write)
		}
		if out != want {
			return fmt.Errorf("conformance: op %d %+v: outcome %+v, reference %+v", i, op, out, want)
		}
		if op.Coherent && op.Write && !op.NonTemporal {
			// The write-invalidate step machine.stepCore issues after a
			// shared context's store.
			inv, wb := h.InvalidateRemoteCopies(op.Core, op.Addr)
			rinv, rwb := ref.InvalidateRemoteCopies(op.Core, op.Addr)
			if inv != rinv || wb != rwb {
				return fmt.Errorf("conformance: op %d %+v: remote invalidation (%d copies, %d bytes), reference (%d, %d)",
					i, op, inv, wb, rinv, rwb)
			}
		}
		if out.ServedBy == cache.LevelMem && out.MemReadBytes < cfg.L3.LineSize {
			return fmt.Errorf("conformance: op %d: memory-served access read %d bytes (< line %d)",
				i, out.MemReadBytes, cfg.L3.LineSize)
		}
		if out.ServedBy != cache.LevelMem && out.MemReadBytes > 0 && out.Prefetches == 0 && !out.PrefetchHit {
			return fmt.Errorf("conformance: op %d: %s hit read %d bytes from memory",
				i, out.ServedBy, out.MemReadBytes)
		}
		if err := compareHierarchyStats(ref, h); err != nil {
			return fmt.Errorf("conformance: op %d %+v: %w", i, op, err)
		}
		if (i+1)%checkEvery == 0 {
			if err := check(i); err != nil {
				return err
			}
		}
	}
	return check(len(ops) - 1)
}

// compareHierarchyStats requires every level's per-owner counters to
// equal the reference's.
func compareHierarchyStats(ref *RefHierarchy, h *cache.Hierarchy) error {
	for c := range ref.l1 {
		if r, g := ref.l1[c].Stats(0), h.L1(c).Stats(0); r != g {
			return fmt.Errorf("L1.%d stats %+v, reference %+v", c, g, r)
		}
		if r, g := ref.l2[c].Stats(0), h.L2(c).Stats(0); r != g {
			return fmt.Errorf("L2.%d stats %+v, reference %+v", c, g, r)
		}
		if r, g := ref.l3.Stats(cache.Owner(c)), h.L3().Stats(cache.Owner(c)); r != g {
			return fmt.Errorf("L3 owner %d stats %+v, reference %+v", c, g, r)
		}
	}
	return nil
}

// compareHierarchyLines requires every level to hold the reference's
// lines, each in the same set and way with the same owner and flags.
func compareHierarchyLines(ref *RefHierarchy, h *cache.Hierarchy) error {
	for c := range ref.l1 {
		if err := compareLines(ref.l1[c], h.L1(c)); err != nil {
			return err
		}
		if err := compareLines(ref.l2[c], h.L2(c)); err != nil {
			return err
		}
	}
	return compareLines(ref.l3, h.L3())
}

// lineWalker is a cache model that lists its lines in set/way order:
// the Reference oracle, or a stand-alone cache.Cache as the reference of
// a fused replica.
type lineWalker interface {
	ForEachLine(fn func(cache.LineInfo) bool)
}

// compareLines walks both layouts in set/way order and reports the
// first line that differs in place, tag, owner, dirty or prefetch bit.
func compareLines(ref lineWalker, c *cache.Cache) error {
	var want []cache.LineInfo
	ref.ForEachLine(func(li cache.LineInfo) bool {
		want = append(want, li)
		return true
	})
	name := c.Config().Name
	n := 0
	var err error
	c.ForEachLine(func(li cache.LineInfo) bool {
		if n >= len(want) {
			err = fmt.Errorf("conformance: %s holds line %+v the reference does not", name, li)
		} else if li != want[n] {
			err = fmt.Errorf("conformance: %s line %+v, reference %+v", name, li, want[n])
		}
		n++
		return err == nil
	})
	if err == nil && n < len(want) {
		err = fmt.Errorf("conformance: %s lacks reference line %+v", name, want[n])
	}
	return err
}
