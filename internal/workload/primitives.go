package workload

import (
	"fmt"

	"cachepirate/internal/stats"
)

// Sequential streams over a working set with a fixed element size,
// wrapping at the end — the classic bandwidth-bound pattern
// (462.libquantum, the Pirate itself, Fig. 4's sequential micro
// benchmark).
type Sequential struct {
	name      string
	base      uint64
	span      int64
	elem      int64
	nInstr    uint32
	writeFrac float64
	mlp       float64

	pos int64
	rng *stats.RNG
}

// SequentialConfig parameterises a Sequential generator.
type SequentialConfig struct {
	Name      string
	Base      uint64  // start of the address range
	Span      int64   // working-set size in bytes
	Elem      int64   // access granularity in bytes (default LineSize)
	NInstr    uint32  // plain instructions between accesses
	WriteFrac float64 // fraction of accesses that are writes
	MLP       float64 // overlap hint (default 4; streams overlap well)
}

// NewSequential builds a sequential streamer.
func NewSequential(cfg SequentialConfig) *Sequential {
	validateSpan(cfg.Name, cfg.Span)
	if cfg.Elem <= 0 {
		cfg.Elem = LineSize
	}
	if cfg.MLP == 0 {
		cfg.MLP = 4
	}
	return &Sequential{
		name: cfg.Name, base: cfg.Base, span: cfg.Span, elem: cfg.Elem,
		nInstr: cfg.NInstr, writeFrac: cfg.WriteFrac, mlp: cfg.MLP,
		rng: stats.NewRNG(1),
	}
}

// Next returns the next op.
func (g *Sequential) Next() Op {
	a := g.base + uint64(g.pos)
	g.pos += g.elem
	if g.pos >= g.span {
		g.pos = 0
	}
	return Op{NInstr: g.nInstr, Addr: a, Write: g.writeFrac > 0 && g.rng.Float64() < g.writeFrac}
}

// Reset restarts the stream.
func (g *Sequential) Reset(seed uint64) {
	g.pos = 0
	g.rng.Reseed(seed)
}

// Name returns the configured name.
func (g *Sequential) Name() string { return g.name }

// MLP returns the overlap hint.
func (g *Sequential) MLP() float64 { return g.mlp }

// WorkingSet returns the span.
func (g *Sequential) WorkingSet() int64 { return g.span }

// BlockedStream sweeps its working set in chunks, making Passes passes
// over each chunk before moving on. With available cache >= ChunkSize
// only the first pass fetches; with less, every pass fetches. Its
// fetch-ratio-vs-cache-size curve is therefore a step at ChunkSize —
// the primitive behind Cigar's distinctive 6MB jump and, in mixtures,
// the knees of the SPEC-like curves.
type BlockedStream struct {
	name   string
	base   uint64
	span   int64
	chunk  int64
	passes int
	elem   int64
	nInstr uint32
	wfrac  float64
	mlp    float64

	chunkStart int64
	pass       int
	pos        int64
	rng        *stats.RNG
}

// BlockedConfig parameterises a BlockedStream.
type BlockedConfig struct {
	Name      string
	Base      uint64
	Span      int64 // total data touched before the pattern wraps
	ChunkSize int64 // reuse window: the knee of the fetch-ratio curve
	Passes    int   // passes over each chunk (default 4)
	Elem      int64
	NInstr    uint32
	WriteFrac float64
	MLP       float64
}

// NewBlockedStream builds a blocked-reuse streamer.
func NewBlockedStream(cfg BlockedConfig) *BlockedStream {
	validateSpan(cfg.Name, cfg.Span)
	if cfg.ChunkSize <= 0 || cfg.ChunkSize > cfg.Span {
		panic(fmt.Sprintf("workload %s: chunk %d out of (0, span=%d]", cfg.Name, cfg.ChunkSize, cfg.Span))
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 4
	}
	if cfg.Elem <= 0 {
		cfg.Elem = LineSize
	}
	if cfg.MLP == 0 {
		cfg.MLP = 4
	}
	return &BlockedStream{
		name: cfg.Name, base: cfg.Base, span: cfg.Span, chunk: cfg.ChunkSize,
		passes: cfg.Passes, elem: cfg.Elem, nInstr: cfg.NInstr,
		wfrac: cfg.WriteFrac, mlp: cfg.MLP, rng: stats.NewRNG(1),
	}
}

// Next returns the next op.
func (g *BlockedStream) Next() Op {
	a := g.base + uint64(g.chunkStart+g.pos)
	g.pos += g.elem
	end := g.chunk
	if g.chunkStart+end > g.span {
		end = g.span - g.chunkStart
	}
	if g.pos >= end {
		g.pos = 0
		g.pass++
		if g.pass >= g.passes {
			g.pass = 0
			g.chunkStart += g.chunk
			if g.chunkStart >= g.span {
				g.chunkStart = 0
			}
		}
	}
	return Op{NInstr: g.nInstr, Addr: a, Write: g.wfrac > 0 && g.rng.Float64() < g.wfrac}
}

// Reset restarts the pattern.
func (g *BlockedStream) Reset(seed uint64) {
	g.chunkStart, g.pass, g.pos = 0, 0, 0
	g.rng.Reseed(seed)
}

// Name returns the configured name.
func (g *BlockedStream) Name() string { return g.name }

// MLP returns the overlap hint.
func (g *BlockedStream) MLP() float64 { return g.mlp }

// WorkingSet returns the reuse window (the chunk size).
func (g *BlockedStream) WorkingSet() int64 { return g.chunk }

// RandomAccess issues uniform random line-granular accesses over its
// working set (429.mcf-like, Fig. 4's random micro benchmark).
type RandomAccess struct {
	name   string
	base   uint64
	span   int64
	nInstr uint32
	wfrac  float64
	mlp    float64
	seed   uint64
	rng    *stats.RNG
}

// RandomConfig parameterises a RandomAccess generator.
type RandomConfig struct {
	Name      string
	Base      uint64
	Span      int64
	NInstr    uint32
	WriteFrac float64
	MLP       float64 // default 2: some overlap, not stream-class
	Seed      uint64
}

// NewRandomAccess builds a uniform random generator.
func NewRandomAccess(cfg RandomConfig) *RandomAccess {
	validateSpan(cfg.Name, cfg.Span)
	if cfg.MLP == 0 {
		cfg.MLP = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &RandomAccess{
		name: cfg.Name, base: cfg.Base, span: cfg.Span, nInstr: cfg.NInstr,
		wfrac: cfg.WriteFrac, mlp: cfg.MLP, seed: cfg.Seed, rng: stats.NewRNG(cfg.Seed),
	}
}

// Next returns the next op.
func (g *RandomAccess) Next() Op {
	lines := uint64(g.span / LineSize)
	a := g.base + g.rng.Uint64n(lines)*LineSize
	return Op{NInstr: g.nInstr, Addr: a, Write: g.wfrac > 0 && g.rng.Float64() < g.wfrac}
}

// Reset reseeds the generator.
func (g *RandomAccess) Reset(seed uint64) {
	if seed == 0 {
		seed = g.seed
	}
	g.rng.Reseed(seed)
}

// Name returns the configured name.
func (g *RandomAccess) Name() string { return g.name }

// MLP returns the overlap hint.
func (g *RandomAccess) MLP() float64 { return g.mlp }

// WorkingSet returns the span.
func (g *RandomAccess) WorkingSet() int64 { return g.span }

// PointerChase walks a fixed random cycle through the lines of its
// working set. Each access depends on the previous one, so MLP is 1 —
// the latency-bound pattern (471.omnetpp-like heap traversal). The
// cycle is stored as its visiting order, 4 B per line: a permutation of
// the lines walked front to back and wrapped.
type PointerChase struct {
	name   string
	base   uint64
	order  []uint32 // line numbers in visiting order
	pos    int      // index into order of the next line
	nInstr uint32
	wfrac  float64
	rng    *stats.RNG
	seed   uint64
}

// ChaseConfig parameterises a PointerChase generator.
type ChaseConfig struct {
	Name      string
	Base      uint64
	Span      int64
	NInstr    uint32
	WriteFrac float64
	Seed      uint64
}

// NewPointerChase builds a pointer-chasing generator over a random
// Hamiltonian cycle of the working set's lines.
func NewPointerChase(cfg ChaseConfig) *PointerChase {
	validateSpan(cfg.Name, cfg.Span)
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &PointerChase{
		name: cfg.Name, base: cfg.Base, nInstr: cfg.NInstr,
		order: stats.NewRNG(cfg.Seed).Perm(max(int(cfg.Span/LineSize), 1)),
		wfrac: cfg.WriteFrac, seed: cfg.Seed, rng: stats.NewRNG(cfg.Seed),
	}
}

// Next returns the next op.
func (g *PointerChase) Next() Op {
	a := g.base + uint64(g.order[g.pos])*LineSize
	g.pos++
	if g.pos == len(g.order) {
		g.pos = 0
	}
	return Op{NInstr: g.nInstr, Addr: a, Write: g.wfrac > 0 && g.rng.Float64() < g.wfrac}
}

// Reset rebuilds the cycle with the given seed.
func (g *PointerChase) Reset(seed uint64) {
	if seed == 0 {
		seed = g.seed
	}
	g.order = stats.NewRNG(seed).Perm(len(g.order))
	g.pos = 0
	g.rng.Reseed(seed)
}

// Name returns the configured name.
func (g *PointerChase) Name() string { return g.name }

// MLP returns 1: chained loads cannot overlap.
func (g *PointerChase) MLP() float64 { return 1 }

// WorkingSet returns the cycle footprint.
func (g *PointerChase) WorkingSet() int64 { return int64(len(g.order)) * LineSize }

// HotCold draws lines from its working set with Zipf skew: a hot head
// that caches well plus a long cold tail (403.gcc / 482.sphinx3-like
// behaviour whose fetch ratio falls gradually with more cache).
type HotCold struct {
	name   string
	base   uint64
	span   int64
	nInstr uint32
	wfrac  float64
	mlp    float64
	seed   uint64
	rng    *stats.RNG // the sampler's; Reset reseeds it in place
	zipf   *stats.Zipf
}

// HotColdConfig parameterises a HotCold generator.
type HotColdConfig struct {
	Name      string
	Base      uint64
	Span      int64
	Skew      float64 // Zipf exponent (default 0.6)
	NInstr    uint32
	WriteFrac float64
	MLP       float64
	Seed      uint64
}

// NewHotCold builds a Zipf-skewed generator.
func NewHotCold(cfg HotColdConfig) *HotCold {
	validateSpan(cfg.Name, cfg.Span)
	if cfg.Skew == 0 {
		cfg.Skew = 0.6
	}
	if cfg.MLP == 0 {
		cfg.MLP = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rng := stats.NewRNG(cfg.Seed)
	return &HotCold{
		name: cfg.Name, base: cfg.Base, span: cfg.Span, nInstr: cfg.NInstr,
		wfrac: cfg.WriteFrac, mlp: cfg.MLP, seed: cfg.Seed, rng: rng,
		zipf: stats.NewZipf(rng, max(int(cfg.Span/LineSize), 1), cfg.Skew),
	}
}

// Next returns the next op.
func (g *HotCold) Next() Op {
	line := uint64(g.zipf.Next())
	// Spread ranks over the address space so the hot head is not one
	// contiguous run (multiplicative hashing by a fixed odd constant).
	lines := uint64(g.span / LineSize)
	a := g.base + (line*0x9E3779B97F4A7C15%lines)*LineSize
	return Op{NInstr: g.nInstr, Addr: a, Write: g.wfrac > 0 && g.rng.Float64() < g.wfrac}
}

// Reset reseeds the sampler. The Zipf table depends only on the span
// and the skew, so it is kept.
func (g *HotCold) Reset(seed uint64) {
	if seed == 0 {
		seed = g.seed
	}
	g.rng.Reseed(seed)
}

// Name returns the configured name.
func (g *HotCold) Name() string { return g.name }

// MLP returns the overlap hint.
func (g *HotCold) MLP() float64 { return g.mlp }

// WorkingSet returns the span.
func (g *HotCold) WorkingSet() int64 { return g.span }
