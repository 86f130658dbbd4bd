package conformance

import (
	"cachepirate/internal/cache"
	"cachepirate/internal/stats"
)

// Op is one operation of a kernel conformance stream, mirroring the
// cache.Cache API surface the hierarchy exercises.
type Op struct {
	Kind  OpKind
	Addr  cache.Addr
	Owner cache.Owner
	// Write doubles as the demand-write flag (OpAccess/OpAccessFill)
	// and the pre-dirty flag (fills).
	Write bool
}

// OpKind enumerates kernel operations.
type OpKind uint8

// Kernel operation kinds.
const (
	OpAccess       OpKind = iota // demand access, no fill on miss
	OpAccessFill                 // fused demand access + fill (L3 hot path)
	OpFill                       // plain fill
	OpFillPrefetch               // prefetch-marked fill
	OpFillMissed                 // deferred fill (applied only when absent)
	OpInvalidate                 // back-invalidation
	OpMarkDirty                  // upper-level writeback
	OpFlush                      // full flush (contents only, stats kept)
	numOpKinds
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpAccess:
		return "Access"
	case OpAccessFill:
		return "AccessFill"
	case OpFill:
		return "Fill"
	case OpFillPrefetch:
		return "FillPrefetch"
	case OpFillMissed:
		return "FillMissed"
	case OpInvalidate:
		return "Invalidate"
	case OpMarkDirty:
		return "MarkDirty"
	case OpFlush:
		return "Flush"
	}
	return "op?"
}

// kernelOwners is the owner count every kernel stream uses: enough to
// exercise per-owner accounting without blowing up the encoding.
const kernelOwners = 3

// kernelGeometries are the bounded cache shapes fuzz- and
// property-streams draw from: a typical power-of-two shape, a tiny
// high-pressure shape, a non-power-of-two-sets/odd-ways shape (modulo
// indexing path), a single-set fully-associative shape, and a 32-way
// shape. Between them the power-of-two ones give pseudo-LRU each of its
// kernels: the victim table (4, 8 ways) and the tree descent (16, 32).
// New shapes go at the end: a corpus file names its shape by index.
var kernelGeometries = []cache.Config{
	{Name: "k-16x4", Size: 4 << 10, Ways: 4, LineSize: 64},
	{Name: "k-4x8", Size: 2 << 10, Ways: 8, LineSize: 64},
	{Name: "k-24x3", Size: 24 * 3 * 64, Ways: 3, LineSize: 64},
	{Name: "k-1x16", Size: 1 << 10, Ways: 16, LineSize: 64},
	{Name: "k-2x32", Size: 4 << 10, Ways: 32, LineSize: 64},
}

// KernelConfigs returns the bounded geometries a policy can run
// (pseudo-LRU requires power-of-two ways), each completed with the
// policy and the standard owner count — the campaign space of the
// property tests and the `conformance check` CLI.
func KernelConfigs(pol cache.PolicyKind) []cache.Config {
	var out []cache.Config
	for _, g := range kernelGeometries {
		if pol == cache.PseudoLRU && g.Ways&(g.Ways-1) != 0 {
			continue
		}
		g.Policy = pol
		g.Owners = kernelOwners
		out = append(out, g)
	}
	return out
}

// kernelOpBytes is the encoded size of one kernel op.
const kernelOpBytes = 3

// DecodeKernel derives a valid cache configuration and an operation
// stream from arbitrary bytes — the fuzz-target front end. The first
// byte selects policy and geometry (invalid combinations are remapped,
// never rejected, so every input exercises the kernel); each further
// 3-byte group is one operation. The mapping is total and
// deterministic: any byte string decodes to a replayable stream.
func DecodeKernel(data []byte) (cache.Config, []Op) {
	cfg := kernelGeometries[0]
	if len(data) == 0 {
		cfg.Policy = cache.LRU
		cfg.Owners = kernelOwners
		return cfg, nil
	}
	sel := data[0]
	pol := cache.PolicyKind(sel & 3)
	geom := int(sel>>2) % len(kernelGeometries)
	cfg = kernelGeometries[geom]
	if pol == cache.PseudoLRU && cfg.Ways&(cfg.Ways-1) != 0 {
		cfg = kernelGeometries[0] // pseudo-LRU needs power-of-two ways
	}
	cfg.Policy = pol
	cfg.Owners = kernelOwners

	body := data[1:]
	ops := make([]Op, 0, len(body)/kernelOpBytes)
	for i := 0; i+kernelOpBytes <= len(body); i += kernelOpBytes {
		k, lo, hi := body[i], body[i+1], body[i+2]
		ops = append(ops, Op{
			Kind:  OpKind(k % uint8(numOpKinds)),
			Addr:  cache.Addr(uint64(hi)<<8|uint64(lo)) << 4,
			Owner: cache.Owner(((k >> 3) & 3) % kernelOwners),
			Write: k&0x80 != 0,
		})
	}
	return cfg, ops
}

// EncodeKernel is the inverse of DecodeKernel for streams within its
// value ranges — used to write fuzz seed corpora and replay files.
func EncodeKernel(cfg cache.Config, ops []Op) []byte {
	geom := 0
	for i, g := range kernelGeometries {
		if g.Size == cfg.Size && g.Ways == cfg.Ways {
			geom = i
			break
		}
	}
	out := make([]byte, 0, 1+len(ops)*kernelOpBytes)
	out = append(out, byte(int(cfg.Policy)&3|geom<<2))
	for _, op := range ops {
		k := byte(op.Kind) % uint8(numOpKinds)
		k |= byte(op.Owner%kernelOwners) << 3
		if op.Write {
			k |= 0x80
		}
		slot := uint64(op.Addr) >> 4
		out = append(out, k, byte(slot), byte(slot>>8))
	}
	return out
}

// Pattern selects the address-stream shape of generated streams.
type Pattern int

// Stream patterns. Uniform and Sweep are the happy paths the
// performance work tunes for; Hammer and PingPong are the adversarial
// single-set patterns of the shared-cache DoS literature that stress
// victim selection, writebacks and the free-mask bookkeeping.
const (
	// PatternUniform draws addresses uniformly over ~4x capacity.
	PatternUniform Pattern = iota
	// PatternSweep scans linearly, pirate-style.
	PatternSweep
	// PatternHammer sends 7 of 8 accesses into a single set.
	PatternHammer
	// PatternPingPong duels two owners over one set's worth of lines.
	PatternPingPong
	numPatterns
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternUniform:
		return "uniform"
	case PatternSweep:
		return "sweep"
	case PatternHammer:
		return "hammer"
	case PatternPingPong:
		return "pingpong"
	}
	return "pattern?"
}

// Patterns lists every stream pattern.
func Patterns() []Pattern {
	ps := make([]Pattern, numPatterns)
	for i := range ps {
		ps[i] = Pattern(i)
	}
	return ps
}

// GenOps produces a deterministic n-op stream over cfg's address space
// following the pattern. The op mix leans on the demand paths
// (Access/AccessFill) with fills, invalidations, dirty marks and rare
// flushes folded in, and sub-line offsets one op in four.
func GenOps(rng *stats.RNG, cfg cache.Config, pattern Pattern, n int) []Op {
	spanLines := uint64(4 * cfg.Size / cfg.LineSize)
	if spanLines == 0 {
		spanLines = 1
	}
	sets := uint64(cfg.Sets())
	line := uint64(cfg.LineSize)
	var sweepPos uint64
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		var la uint64
		switch pattern {
		case PatternSweep:
			la = sweepPos % spanLines
			sweepPos++
		case PatternHammer:
			if rng.Uint64n(8) != 0 {
				// Lines all mapping to set 0: multiples of the set count.
				la = rng.Uint64n(spanLines/sets+1) * sets
			} else {
				la = rng.Uint64n(spanLines)
			}
		case PatternPingPong:
			// Two owners fight over ways+1 lines of one set, with a
			// trickle of background noise.
			if rng.Uint64n(16) != 0 {
				la = rng.Uint64n(uint64(cfg.Ways)+1) * sets
			} else {
				la = rng.Uint64n(spanLines)
			}
		default:
			la = rng.Uint64n(spanLines)
		}
		a := cache.Addr(la * line)
		if rng.Uint64n(4) == 0 {
			a += cache.Addr(rng.Uint64n(line))
		}
		var kind OpKind
		switch r := rng.Uint64n(32); {
		case r < 10:
			kind = OpAccessFill
		case r < 18:
			kind = OpAccess
		case r < 22:
			kind = OpFill
		case r < 24:
			kind = OpFillPrefetch
		case r < 26:
			kind = OpFillMissed
		case r < 29:
			kind = OpInvalidate
		case r == 31 && rng.Uint64n(16) == 0:
			// Rare: a flush resets the pressure the stream has built.
			kind = OpFlush
		default:
			kind = OpMarkDirty
		}
		ops = append(ops, Op{
			Kind:  kind,
			Addr:  a,
			Owner: cache.Owner(rng.Uint64n(kernelOwners)),
			Write: rng.Uint64n(10) < 3,
		})
	}
	return ops
}
