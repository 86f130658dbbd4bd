// The fused sweep engine: every cache size of a sweep — ByWays or
// BySets — from one trace replay per replica group.
//
// The per-size path replays the trace once per size — 16 full machine
// replays for the default sweep, each re-decoding the trace and
// re-driving a scheduler, a bandwidth-server object pair and a cpu.Core
// per size. The fused engine iterates the trace, decodes each record
// once, and fans the access out to one hierarchy replica per size
// (cache.FusedHierarchy): replicas share only the line size, every set
// index is derived per replica, so way-shrunk and set-shrunk sizes fuse
// alike. Per-replica L1/L2/L3 state lives in contiguous SoA blocks and
// the per-replica timing state (cycle clock, bandwidth-server cursors,
// DRAM byte counters) lives in registers for the duration of a record
// block.
//
// What the engine gains is the lean replayBlock loop, not the shared
// decode (5% of a fused sweep even decoded once per group), and what it
// pays is the interleaved line state of every replica competing for
// the host's cache. The sweep therefore replays the sizes in
// consecutive replica groups of bounded line state (fusedGroupLines),
// each over its own freshly opened source; Config.Workers is how many
// groups replay at once. The largest size goes first, alone, as a
// footprint probe: a size the trace provably cannot overflow takes the
// probe's point instead of a replay (sweepFusedGrouped).
//
// Bit-identity with the per-size path is load-bearing and rests on
// three facts. First, a single-core machine's scheduler is trivial:
// RunInstructions(core 0, one trace pass) retires exactly the trace's
// records in order, and the chunked instruction retirement
// (machine.StepChunk) never straddles a pass boundary, because a
// record's access retires in the same step as its last instruction
// chunk. Second, the timing recurrence per record is a pure function of
// (previous clock, bandwidth cursors, hierarchy outcome); replayBlock
// reproduces stepCore's float64 operations in the same order, so the
// sums round identically. Third, the hierarchy replicas start
// bit-identical to fresh machines and cache.FusedHierarchy.AccessPacked
// is step-for-step Hierarchy.Access. conformance.CheckSweepEquivalence
// pins all of this down against the retained per-size oracle.
package simulate

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/counters"
	"cachepirate/internal/cpu"
	"cachepirate/internal/machine"
	"cachepirate/internal/runner"
	"cachepirate/internal/trace"
)

// fusedBlock is how many trace records the engine replays per replica
// before moving to the next replica. Large enough to amortise the
// per-replica timing-state spill/reload, small enough that a replica's
// working lines stay cache-resident across its turn.
const fusedBlock = 256

// fusedGroupLines is the sweep's replica-group budget in L3 lines:
// consecutive sizes are replayed together while their summed L3 line
// count fits. Twice the Nehalem L3 (about 5.5 MB of line state) splits
// the default 16 sizes into the probe and 5 groups; all 16 at once
// interleave 23 MB of line state, which no host cache holds, and the
// sweep's speed then follows whatever else shares the host's last-level
// cache.
const fusedGroupLines = 1 << 18

// repClock is one replica's timing state: the fields a per-size
// machine keeps in cpu.Core, the two mem.Servers and the machine's
// DRAM byte counters, reduced to what the sweep's counter reads
// observe. replayBlock loads these into locals for a block of records.
type repClock struct {
	cycles   float64 // cpu.Core cycle clock
	instrs   uint64  // retired instructions
	memAccs  uint64  // demand memory accesses
	l3Free   float64 // L3 port server's next-free cursor
	dramFree float64 // DRAM server's next-free cursor
	memRead  uint64  // cumulative DRAM read bytes
	memWrite uint64  // cumulative DRAM write bytes
}

// fusedEngine advances one hierarchy replica per size through a
// shared trace stream.
type fusedEngine struct {
	fh *cache.FusedHierarchy

	params      cpu.Params
	mlp         float64
	lineSize    int64
	l3BPC       float64 // L3 port bytes/cycle
	dramBPC     float64 // DRAM bytes/cycle
	dramLat     float64 // DRAM base latency in cycles
	chunkCycles float64 // cycles per full StepChunk of instructions

	// Precomputed single-line service times. Almost every record moves
	// exactly one line per server (one L3 port use, one DRAM fill or
	// writeback), so the division float64(lineSize)/BPC the per-size
	// servers perform per request resolves to the same quotient every
	// time; computing it once and reusing it is the identical IEEE
	// operation on identical operands — bit-equal — and keeps an FDIV
	// out of the record loop. Multi-line requests fall back to the
	// general division.
	l3LineCyc   float64 // float64(lineSize) / l3BPC
	dramLineCyc float64 // float64(lineSize) / dramBPC

	// Precomputed cycles of a record a private level serves: the
	// BaseCPI + cpu.AccessCost sum cpu.Core.RetireAccess adds to the
	// clock. For an L1 or L2 hit it depends on the core parameters and
	// the MLP alone, so evaluating it once here is the very expression
	// the per-size path evaluates per record, on the same operands —
	// bit-equal, as for the line service times above — and keeps the
	// L2Cost/mlp FDIV out of the record loop.
	l1HitCyc float64
	l2HitCyc float64

	warm int
	clk  []repClock
	base []counters.Sample
}

// hierarchyConfig is the replica template: cfg's private levels and
// prefetcher (each replica brings its own L3).
func hierarchyConfig(cfg Config) cache.HierarchyConfig {
	return cache.HierarchyConfig{
		Cores:         1,
		L1:            cfg.Machine.L1,
		L2:            cfg.Machine.L2,
		NewPrefetcher: cfg.Machine.NewPrefetcher,
	}
}

// newFusedEngine builds an engine with one replica per L3 config, its
// line state carved from backing (nil: storage of its own).
func newFusedEngine(cfg Config, l3 []cache.Config, backing *cache.FusedBacking) (*fusedEngine, error) {
	fh, err := cache.NewFusedHierarchyL3(hierarchyConfig(cfg), l3, backing)
	if err != nil {
		return nil, err
	}
	mlp := cfg.MLP
	if mlp < 1 {
		mlp = 1 // the generator/attach clamp of the per-size path
	}
	return &fusedEngine{
		fh:          fh,
		params:      cfg.Machine.CPU,
		mlp:         mlp,
		lineSize:    cfg.Machine.L3.LineSize,
		l3BPC:       cfg.Machine.L3Port.BytesPerCycle,
		dramBPC:     cfg.Machine.DRAM.BytesPerCycle,
		dramLat:     cfg.Machine.DRAM.BaseLatency,
		chunkCycles: float64(machine.StepChunk) * cfg.Machine.CPU.BaseCPI,
		l3LineCyc:   float64(cfg.Machine.L3.LineSize) / cfg.Machine.L3Port.BytesPerCycle,
		dramLineCyc: float64(cfg.Machine.L3.LineSize) / cfg.Machine.DRAM.BytesPerCycle,
		l1HitCyc:    cfg.Machine.CPU.BaseCPI + cpu.AccessCost(cfg.Machine.CPU, cache.Outcome{ServedBy: cache.LevelL1}, 0, 0, mlp),
		l2HitCyc:    cfg.Machine.CPU.BaseCPI + cpu.AccessCost(cfg.Machine.CPU, cache.Outcome{ServedBy: cache.LevelL2}, 0, 0, mlp),
		warm:        cfg.WarmPasses,
		clk:         make([]repClock, len(l3)),
		base:        make([]counters.Sample, len(l3)),
	}, nil
}

// replay opens a source, runs it through every replica and closes it.
func (e *fusedEngine) replay(ctx context.Context, open func() (trace.BlockSource, error)) (err error) {
	src, err := open()
	if err != nil {
		return err
	}
	defer closeSource(src, &err)
	return e.run(ctx, src)
}

// run replays warm+1 passes of src through every replica, capturing
// the per-replica counter baselines between the last warm pass and
// the measured one — exactly where the per-size path calls
// PMU.MarkAll. Source blocks of any size are re-chunked to fusedBlock
// internally; block boundaries cannot affect results (replicas never
// interact and each sees the same record order regardless of
// chunking), so a streamed source is bit-identical to an in-memory
// replayer.
func (e *fusedEngine) run(ctx context.Context, src trace.BlockSource) error {
	var total int64
	for pass := 0; pass <= e.warm; pass++ {
		if err := src.Rewind(); err != nil {
			return err
		}
		if pass == e.warm {
			for k := range e.base {
				e.base[k] = e.sample(k)
			}
		}
		for {
			blk, err := src.NextBlock()
			if err != nil {
				return err
			}
			n := len(blk)
			if n == 0 {
				break
			}
			if pass == 0 {
				total += int64(n)
			}
			if err := e.replayAll(ctx, blk); err != nil {
				return err
			}
		}
	}
	if total == 0 {
		return fmt.Errorf("simulate: empty trace")
	}
	return nil
}

// replayAll advances every replica through one source block,
// re-chunking it to fusedBlock internally. Chunk boundaries cannot
// affect results — replicas never interact and replayBlock's timing
// recurrence is a pure fold over the record sequence — so any chunking
// of the same record order (a streamed reader's frames, an in-memory
// replayer's single block) is bit-identical.
func (e *fusedEngine) replayAll(ctx context.Context, blk []trace.Record) error {
	n := len(blk)
	for lo := 0; lo < n; lo += fusedBlock {
		// One poll per fusedBlock round (256 records across every
		// replica): the cancellation point that lets a curve job's
		// deadline abandon an in-memory replay, whose source yields
		// the whole trace as one block.
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + fusedBlock
		if hi > n {
			hi = n
		}
		sub := blk[lo:hi]
		for k := range e.clk {
			e.replayBlock(sub, k)
		}
	}
	return nil
}

// replayBlock advances replica k through one block of records. This is
// the size-inner loop of the fused sweep: all timing state lives in
// locals, and each record costs one FusedHierarchy.AccessPacked plus the
// same float64 timing recurrence stepCore computes — term for term, in
// stepCore's evaluation order, so the clocks agree bit for bit with a
// per-size machine replay. The outcome arrives as one word, so it stays
// in a register, and a private-level hit that moved no data — most
// records — is charged its precomputed cost without touching the
// bandwidth servers, which such a record leaves alone in stepCore too.
//
//lint:hotpath
func (e *fusedEngine) replayBlock(blk []trace.Record, k int) {
	t := &e.clk[k]
	cycles := t.cycles
	instrs := t.instrs
	memAccs := t.memAccs
	l3Free := t.l3Free
	dramFree := t.dramFree
	memRead := t.memRead
	memWrite := t.memWrite
	// Hoist every engine field the loop reads: the compiler cannot
	// prove the access call leaves *e unchanged, so field reads inside
	// the loop would reload from memory every record.
	fh := e.fh
	params := e.params
	baseCPI := params.BaseCPI
	chunkCycles := e.chunkCycles
	lineSize := e.lineSize
	l3BPC := e.l3BPC
	dramBPC := e.dramBPC
	dramLat := e.dramLat
	mlp := e.mlp
	l3LineCyc := e.l3LineCyc
	dramLineCyc := e.dramLineCyc
	l1HitCyc := e.l1HitCyc
	l2HitCyc := e.l2HitCyc

	for _, rec := range blk {
		// Leading instructions, chunked as stepCore retires them.
		n := rec.NInstr
		for n > machine.StepChunk {
			instrs += machine.StepChunk
			cycles += chunkCycles
			n -= machine.StepChunk
		}
		if n > 0 {
			instrs += uint64(n)
			cycles += float64(n) * baseCPI
		}
		instrs++
		memAccs++

		out := fh.AccessPacked(k, cache.Addr(rec.Addr), rec.Write)
		if out == cache.PackedL1Hit {
			cycles += l1HitCyc
			continue
		}
		if out == cache.PackedL2Hit {
			cycles += l2HitCyc
			continue
		}
		now := cycles

		// L3 port queueing (mem.Server.Request on the l3port server).
		var l3Queue, memDelay float64
		if uses := out.L3Uses(); uses > 0 {
			start := now
			if l3Free > start {
				l3Queue = l3Free - now
				start = l3Free
			}
			if uses == 1 {
				l3Free = start + l3LineCyc
			} else {
				l3Free = start + float64(uses*lineSize)/l3BPC
			}
		}
		// DRAM read, then writeback — stepCore's request order.
		if lines := out.ReadLines(); lines > 0 {
			var backlog float64
			start := now
			if dramFree > start {
				backlog = dramFree - now
				start = dramFree
			}
			if lines == 1 {
				dramFree = start + dramLineCyc
			} else {
				dramFree = start + float64(lines*lineSize)/dramBPC
			}
			if out.ServedBy() == cache.LevelMem {
				memDelay = dramFree + dramLat - now
			} else {
				memDelay = backlog
			}
			memRead += uint64(lines * lineSize)
		}
		if lines := out.WriteLines(); lines > 0 {
			start := now
			if dramFree > start {
				start = dramFree
			}
			if lines == 1 {
				dramFree = start + dramLineCyc
			} else {
				dramFree = start + float64(lines*lineSize)/dramBPC
			}
			memWrite += uint64(lines * lineSize)
		}

		// AccessCost reads the served level and the prefetch-hit bit only.
		served := cache.Outcome{ServedBy: out.ServedBy(), PrefetchHit: out.PrefetchHit()}
		cycles += baseCPI + cpu.AccessCost(params, served, memDelay, l3Queue, mlp)
	}

	t.cycles = cycles
	t.instrs = instrs
	t.memAccs = memAccs
	t.l3Free = l3Free
	t.dramFree = dramFree
	t.memRead = memRead
	t.memWrite = memWrite
}

// sample assembles replica k's cumulative counters exactly as
// machine.ReadCounters(0) would on the equivalent per-size machine.
func (e *fusedEngine) sample(k int) counters.Sample {
	st := e.fh.L3(k).Stats(0)
	t := &e.clk[k]
	return counters.Sample{
		Instructions:  t.instrs,
		Cycles:        uint64(t.cycles),
		MemAccesses:   t.memAccs,
		L3Accesses:    st.Accesses,
		L3Misses:      st.Misses,
		L3Fetches:     st.Fetches(),
		L3Prefetches:  st.PrefetchFills,
		MemReadBytes:  t.memRead,
		MemWriteBytes: t.memWrite,
	}
}

// point returns replica k's measured-pass curve point, labelled with
// the sweep size the replica stands for.
func (e *fusedEngine) point(k int, size int64) analysis.Point {
	s := e.sample(k).Sub(e.base[k])
	return analysis.Point{
		CacheBytes:   size,
		CPI:          s.CPI(),
		BandwidthGBs: s.BandwidthGBs(e.params.FreqHz),
		FetchRatio:   s.FetchRatio(),
		MissRatio:    s.MissRatio(),
		Trusted:      true,
		Samples:      1,
	}
}

// l3Configs returns each machine's L3: the one thing a sweep's replicas
// differ in.
func l3Configs(mcfgs []machine.Config) []cache.Config {
	l3 := make([]cache.Config, len(mcfgs))
	for i, mcfg := range mcfgs {
		l3[i] = mcfg.L3
	}
	return l3
}

// sweepFusedStream is the EngineFused body: the sizes replay in
// replica groups (sweepFusedGrouped), cfg.Workers of them at once.
// Replicas never interact and every group sees the same record order,
// so neither the group budget nor the width can change any point
// (conformance.CheckParallelSweepEquivalence).
func sweepFusedStream(ctx context.Context, cfg Config, open func() (trace.BlockSource, error)) (*analysis.Curve, error) {
	mcfgs, err := shrunkMachines(cfg)
	if err != nil {
		return nil, err
	}
	points, _, err := sweepFusedGrouped(ctx, cfg, open, l3Configs(mcfgs), fusedGroupLines)
	if err != nil {
		return nil, err
	}
	curve := &analysis.Curve{Name: "reference", Points: points}
	curve.Sort()
	return curve, nil
}

// Sweep-wide counts of what the footprint probe saved, for a serving
// process to report (cmd/curved exposes them on /statsz): a curve miss
// that took a fraction of the usual time shows up as replicas cloned.
var (
	replicasReplayed atomic.Int64 // replicas advanced through a whole replay
	replicasCloned   atomic.Int64 // replicas given the probe's point instead
)

// ReplicaStats counts, over every fused sweep of the process so far,
// how each swept size got its point.
type ReplicaStats struct {
	// ReplicasReplayed is how many sizes were replayed record by record.
	ReplicasReplayed int64 `json:"replicas_replayed"`
	// ReplicasCloned is how many took the largest size's point because
	// the trace provably cannot overflow them (see sweepFusedGrouped).
	ReplicasCloned int64 `json:"replicas_cloned"`
}

// SweepReplicaStats returns the current counts.
func SweepReplicaStats() ReplicaStats {
	return ReplicaStats{
		ReplicasReplayed: replicasReplayed.Load(),
		ReplicasCloned:   replicasCloned.Load(),
	}
}

// replicaGroups splits the replicas of a sweep, by index into l3, into
// the groups that replay together. Group 0 is the footprint probe, the
// largest size on its own. The others follow in sweep order, in
// consecutive groups whose summed L3 line count fits budget and whose
// replica count fits ceil(others/workers), so a sweep small enough for
// one group still splits across workers. A replica larger than the
// budget gets a group of its own.
func replicaGroups(l3 []cache.Config, budget, workers int) [][]int {
	probe := 0
	for k, c := range l3 {
		if c.Size > l3[probe].Size {
			probe = k
		}
	}
	groups := [][]int{{probe}}
	maxReps := (len(l3) - 1 + workers - 1) / workers
	var group []int
	lines := 0
	for k, c := range l3 {
		if k == probe {
			continue
		}
		n := int(c.Size / c.LineSize)
		if len(group) > 0 && (lines+n > budget || len(group) == maxReps) {
			groups = append(groups, group)
			group, lines = nil, 0
		}
		group = append(group, k)
		lines += n
	}
	if len(group) > 0 {
		groups = append(groups, group)
	}
	return groups
}

// pick returns the L3 configs of the given replicas.
func pick(l3 []cache.Config, reps []int) []cache.Config {
	out := make([]cache.Config, len(reps))
	for i, k := range reps {
		out[i] = l3[k]
	}
	return out
}

// sweepFusedGrouped is the fused sweep: the sizes advance through the
// trace one replica group per worker at a time, each group a fresh
// engine over a freshly opened source that it closes when done. A
// group's line state is carved from one of cfg.Workers backing blocks,
// each sized up front for the largest group, so a sweep allocates the
// line state of the groups in flight rather than of all sizes.
//
// The first group is the largest size alone, replayed as a footprint
// probe. If its L3 finishes every pass without one eviction, it holds
// every line the trace and its prefetcher ever filled, and any other
// size whose geometry seats those lines at most Ways to a set
// (cache.ResidentFits) never evicts either: no eviction means no
// back-invalidation, so its private levels, its L3 demand stream and
// its prefetcher evolve as the probe's did; the same lines are resident
// at every step, so every lookup hits or misses alike; and no victim is
// ever drawn, so replacement state — all that differs — is never read.
// The same outcome stream through the same timing recurrence is the
// same point, for any policy, geometry or warm-up, and such a size is
// given the probe's point under its own CacheBytes instead of a replay.
// A group checks which of its replicas are proven when it starts (at
// Workers > 1 it may start before the probe is done, and then replays
// them all), and a group with none left opens no source. When the probe
// does evict, nothing is proven and every size replays.
//
// The second result is how many replicas were replayed; the rest were
// cloned.
func sweepFusedGrouped(ctx context.Context, cfg Config, open func() (trace.BlockSource, error), l3 []cache.Config, budget int) ([]analysis.Point, int, error) {
	pool := runner.Pool{Workers: cfg.Workers}
	groups := replicaGroups(l3, budget, pool.EffectiveWorkers(len(l3)))
	groupL3 := make([][]cache.Config, len(groups))
	for g, reps := range groups {
		groupL3[g] = pick(l3, reps)
	}
	workers := pool.EffectiveWorkers(len(groups))
	// Free list of backings: a group takes one for its replay and hands
	// it back, so at most workers are ever held and the receive below
	// never blocks.
	backings := make(chan *cache.FusedBacking, workers)
	for w := 0; w < workers; w++ {
		b, err := cache.NewFusedBacking(hierarchyConfig(cfg), groupL3)
		if err != nil {
			return nil, 0, err
		}
		backings <- b
	}
	points := make([]analysis.Point, len(l3))
	probe := groups[0][0]
	// Per replica, whether its point is the probe's: stored by group 0
	// once, after points[probe], and only if the probe never evicted.
	var proven atomic.Pointer[[]bool]
	var replayed atomic.Int64
	err := runner.Run(ctx, pool, len(groups), func(ctx context.Context, g int) error {
		reps := groups[g]
		if fits := proven.Load(); fits != nil {
			reps = nil
			for _, k := range groups[g] {
				if (*fits)[k] {
					points[k] = points[probe]
					points[k].CacheBytes = cfg.Sizes[k]
					continue
				}
				reps = append(reps, k)
			}
			if len(reps) == 0 {
				return nil
			}
		}
		backing := <-backings
		defer func() { backings <- backing }()
		e, err := newFusedEngine(cfg, pick(l3, reps), backing)
		if err != nil {
			return err
		}
		if err := e.replay(ctx, open); err != nil {
			return err
		}
		replayed.Add(int64(len(reps)))
		for i, k := range reps {
			points[k] = e.point(i, cfg.Sizes[k])
		}
		if c := e.fh.L3(0); g == 0 && c.Stats(0).Evictions == 0 {
			fits := make([]bool, len(l3))
			for k := range l3 {
				fits[k] = c.ResidentFits(l3[k])
			}
			proven.Store(&fits)
		}
		return nil
	})
	n := int(replayed.Load())
	replicasReplayed.Add(int64(n))
	if err != nil {
		// Every group replays the same trace, so which one failed is
		// noise to the caller: drop runner's "task N" wrapper and the
		// error reads the same at any width.
		if cause := errors.Unwrap(err); cause != nil {
			err = cause
		}
		return nil, n, err
	}
	replicasCloned.Add(int64(len(l3) - n))
	return points, n, nil
}
