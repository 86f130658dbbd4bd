// The fused sweep engine: every cache size of a sweep — ByWays or
// BySets — from one trace replay per replica group.
//
// The per-size path replays the trace once per size — 16 full machine
// replays for the default sweep, each re-decoding the trace and
// re-driving a scheduler, a bandwidth-server pair and a core clock per
// size. The fused engine iterates the trace, decodes each record
// once, and fans the access out to one hierarchy replica per size
// (cache.FusedHierarchy): replicas share only the line size, every set
// index is derived per replica, so way-shrunk and set-shrunk sizes fuse
// alike. Per-replica L1/L2/L3 state lives in set-major SoA blocks: set s
// of every replica of a level sits in one contiguous run (see
// cache.Replicas), so the records-outer loop (replayRecords), which
// feeds one record to every replica before the next, walks forward
// through one run per level instead of probing one scattered set per
// replica. The per-replica timing state (cycle clock, bandwidth
// servers, DRAM byte counters) is one small struct per replica, next to
// the others.
//
// What the engine gains is the lean record loop, not the shared decode
// (5% of a fused sweep even decoded once per group), and what it pays
// is the line state of every replica competing for the host's cache.
// The sweep therefore replays the sizes in consecutive replica groups
// of bounded line state (fusedGroupLines), each over its own freshly
// opened source; Config.Workers is how many groups replay at once. The
// largest size goes first, alone, as a footprint probe: a size the
// trace provably cannot overflow takes the probe's point instead of a
// replay (sweepFusedGrouped).
//
// Bit-identity with the per-size path is load-bearing and rests on
// three facts. First, a single-core machine's scheduler is trivial:
// RunInstructions(core 0, one trace pass) retires exactly the trace's
// records in order, and the chunked instruction retirement
// (machine.StepChunk) never straddles a pass boundary, because a
// record's access retires in the same step as its last instruction
// chunk. Second, the timing recurrence per record is a pure function of
// (previous clock, bandwidth servers, hierarchy outcome), and it is
// stepCore's own code: the record loops add the same precomputed
// chunk and private-hit retire cycles (machine.Costs) and call the same
// machine.Shared.Charge past L2, in stepCore's order, so the sums round
// identically. Third, the hierarchy replicas start bit-identical to
// fresh machines and cache.FusedHierarchy.AccessPacked is step-for-step
// Hierarchy.Access. conformance.CheckSweepEquivalence
// pins all of this down against the retained per-size oracle.
package simulate

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/runner"
	"cachepirate/internal/trace"
)

// fusedBlock is how many trace records the engine replays between two
// cancellation polls.
const fusedBlock = 256

// fusedGroupLines is the sweep's replica-group budget in L3 lines:
// consecutive sizes are replayed together while their summed L3 line
// count fits. Twice the Nehalem L3 (about 2.6 MB of line state at 10 B
// a line) splits the default 16 sizes into the probe and 5 groups; all
// 16 at once interleave 11 MB of line state, which no host cache holds,
// and the sweep's speed then follows whatever else shares the host's
// last-level cache.
const fusedGroupLines = 1 << 18

// repClock is one replica's timing state: a per-size machine's core
// cycle clock, shared servers and DRAM byte counters, reduced to what
// the sweep's counter reads observe and what differs between replicas.
// Retired instructions and demand accesses are the trace's own counts,
// the same for every replica, and live in the engine.
type repClock struct {
	cycles float64
	machine.Shared
	traffic machine.Traffic
}

// fusedEngine advances one hierarchy replica per size through a
// shared trace stream.
type fusedEngine struct {
	fh    *cache.FusedHierarchy
	costs machine.Costs

	warm    int
	instrs  uint64 // retired instructions, every replica alike
	memAccs uint64 // demand memory accesses, every replica alike
	clk     []repClock
	base    []counters.Sample
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
	clk := make([]repClock, len(l3))
	shared := machine.NewShared(cfg.Machine)
	for k := range clk {
		clk[k].Shared = shared
	}
	return &fusedEngine{
		fh:    fh,
		costs: machine.NewCosts(cfg.Machine.CPU, cfg.MLP),
		warm:  cfg.WarmPasses,
		clk:   clk,
		base:  make([]counters.Sample, len(l3)),
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
// PMU.MarkAll. Block boundaries cannot affect results (replicas never
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

// replayAll advances every replica through one source block, polling
// for cancellation every fusedBlock records: the cancellation point that
// lets a curve job's deadline abandon an in-memory replay, whose source
// yields the whole trace as one block. A group of one replica — the
// footprint probe — takes replayOne, which keeps its clock in a
// register; a group of more takes replayRecords.
func (e *fusedEngine) replayAll(ctx context.Context, blk []trace.Record) error {
	for lo := 0; lo < len(blk); lo += fusedBlock {
		if err := ctx.Err(); err != nil {
			return err
		}
		sub := blk[lo:min(lo+fusedBlock, len(blk))]
		if len(e.clk) == 1 {
			e.replayOne(sub)
		} else {
			e.replayRecords(sub)
		}
	}
	return nil
}

// replayRecords is the fused sweep's record loop: records outside,
// replicas inside. Each record's line tag and private set positions are
// decoded once (cache.FusedHierarchy.Line); each replica then takes one
// FusedHierarchy.AccessPacked — walking its own part of the set-major
// runs, next to the previous replica's — plus the same float64 timing
// recurrence stepCore computes, term for term, in stepCore's
// evaluation order, so the clocks agree bit for bit with a per-size
// machine replay. The outcome arrives as one word, so it stays in a
// register, and a private-level hit that moved no data — most records —
// is charged its precomputed cost without touching the bandwidth
// servers, which such a record leaves alone in stepCore too.
//
//lint:hotpath
func (e *fusedEngine) replayRecords(blk []trace.Record) {
	// Hoist every engine field the loop reads: the compiler cannot
	// prove the access call leaves *e unchanged, so field reads inside
	// the loop would reload from memory every record.
	fh := e.fh
	clk := e.clk
	costs := &e.costs
	baseCPI, chunk := costs.CPU.BaseCPI, costs.Chunk
	l1, l2 := costs.L1Retire, costs.L2Retire
	instrs := e.instrs
	memAccs := e.memAccs

	for _, rec := range blk {
		// Leading instructions, chunked as stepCore retires them: the
		// full chunks, then the rest. The rest's cycles are the same
		// product for every replica; adding a zero rest leaves a clock
		// unchanged.
		chunks, n := 0, rec.NInstr
		for n > machine.StepChunk {
			chunks++
			n -= machine.StepChunk
		}
		rest := costs.Instrs(n)
		instrs += uint64(rec.NInstr) + 1
		memAccs++

		ln := fh.Line(cache.Addr(rec.Addr))
		for k := range clk {
			t := &clk[k]
			cycles := t.cycles
			for c := chunks; c > 0; c-- {
				cycles += chunk
			}
			cycles += rest
			switch out := fh.AccessPacked(k, ln, rec.Write); out {
			case cache.PackedL1Hit:
				cycles += l1
			case cache.PackedL2Hit:
				cycles += l2
			default:
				cycles += baseCPI + t.Charge(out, cycles, costs, &t.traffic)
			}
			t.cycles = cycles
		}
	}
	e.instrs = instrs
	e.memAccs = memAccs
}

// replayOne is replayRecords for a group of one replica. With a single
// replica nothing hides the latency of a clock that goes through memory
// every record, so the clock stays in a local for the whole block.
//
//lint:hotpath
func (e *fusedEngine) replayOne(blk []trace.Record) {
	fh := e.fh
	t := &e.clk[0]
	cycles := t.cycles
	costs := &e.costs
	baseCPI, chunk := costs.CPU.BaseCPI, costs.Chunk
	l1, l2 := costs.L1Retire, costs.L2Retire
	instrs := e.instrs
	memAccs := e.memAccs

	for _, rec := range blk {
		n := rec.NInstr
		for n > machine.StepChunk {
			cycles += chunk
			n -= machine.StepChunk
		}
		cycles += costs.Instrs(n)
		instrs += uint64(rec.NInstr) + 1
		memAccs++

		switch out := fh.AccessPacked(0, fh.Line(cache.Addr(rec.Addr)), rec.Write); out {
		case cache.PackedL1Hit:
			cycles += l1
		case cache.PackedL2Hit:
			cycles += l2
		default:
			cycles += baseCPI + t.Charge(out, cycles, costs, &t.traffic)
		}
	}
	t.cycles = cycles
	e.instrs = instrs
	e.memAccs = memAccs
}

// sample reads replica k's cumulative counters through the counter
// read machine.ReadCounters(0) makes on the equivalent per-size machine.
func (e *fusedEngine) sample(k int) counters.Sample {
	t := &e.clk[k]
	return machine.Sample(e.instrs, e.memAccs, t.cycles, e.fh.L3(k).Stats(0), t.traffic)
}

// point returns replica k's measured-pass curve point, labelled with
// the sweep size the replica stands for.
func (e *fusedEngine) point(k int, size int64) analysis.Point {
	return curvePoint(size, e.sample(k).Sub(e.base[k]), e.costs.CPU.FreqHz)
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
// (conformance.CheckParallelSweepEquivalence). The mask says which
// points of the curve are policy-free, in the curve's order.
func sweepFusedStream(ctx context.Context, cfg Config, open func() (trace.BlockSource, error)) (*analysis.Curve, []bool, error) {
	points, free, _, err := sweepFusedGrouped(ctx, cfg, open, l3Configs(shrunkMachines(cfg)), fusedGroupLines)
	if err != nil {
		return nil, nil, err
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(points[a].CacheBytes, points[b].CacheBytes) })
	curve := &analysis.Curve{Name: "reference", Points: make([]analysis.Point, len(points))}
	mask := make([]bool, len(points))
	for i, k := range order {
		curve.Points[i], mask[i] = points[k], free[k]
	}
	return curve, mask, nil
}

// SweepPolicyFree is SweepStreamContext for EngineFused, which also
// reports, per point of the curve, whether it is policy-free: whether
// its L3 replica never chose between victims, because it never evicted
// (every size the footprint probe proves, and the probe itself when it
// fits) or because it has one way, where every policy's victim is the
// only way there is. Such a point is the same, bit for bit, under every
// L3 replacement policy (DESIGN.md §11), so a caller that sweeps one
// trace under several policies need sweep only the other sizes, through
// Config.Sizes, for the second policy on.
func SweepPolicyFree(ctx context.Context, cfg Config, open func() (trace.BlockSource, error)) (*analysis.Curve, []bool, error) {
	if cfg.Engine != EngineFused {
		return nil, nil, fmt.Errorf("simulate: policy-free points need engine fused, not %v", cfg.Engine)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	return sweepFusedStream(ctx, cfg.withDefaults(), open)
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

// backingPool holds the line-state blocks of fused sweeps between
// sweeps. A miss on the curve server replays the probe and a few
// smaller sizes of a short trace, and allocating, zeroing and first
// touching a fresh block sized for the largest group took about an
// eighth of such a miss's CPU time.
var backingPool = sync.Pool{New: func() any { return new(cache.FusedBacking) }}

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
// group's line state is carved from one of cfg.Workers backing blocks
// taken from backingPool and grown to the largest group replayed on
// any of them, so a warmed sweep allocates no line state while its
// blocks stay pooled. They need not: backingPool is a sync.Pool, which
// drops what it holds over two collections, and after one a block in
// one P's private slot is out of reach of a sweep running on another
// P, which then builds its own.
//
// The first group is the largest size alone, replayed as a footprint
// probe. If its L3 finishes every pass without one eviction, it holds
// every line the trace and its prefetcher ever filled, and any other
// size whose geometry seats those lines at most Ways to a set
// (cache.FootprintFits) never evicts either: no eviction means no
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
// The second result is, per replica, whether its point is policy-free
// (SweepPolicyFree): it was cloned, its replay never evicted, or its L3
// has one way. The third is how many replicas were replayed; the rest
// were cloned.
func sweepFusedGrouped(ctx context.Context, cfg Config, open func() (trace.BlockSource, error), l3 []cache.Config, budget int) ([]analysis.Point, []bool, int, error) {
	pool := runner.Pool{Workers: cfg.Workers}
	groups := replicaGroups(l3, budget, pool.EffectiveWorkers(len(l3)))
	workers := pool.EffectiveWorkers(len(groups))
	// Free list of backings: a group takes one for its replay and hands
	// it back, so at most workers are ever held and the receive below
	// never blocks. They go back to backingPool only once runner.Run has
	// joined every task, so no two sweeps ever share one. Which group
	// replays on which backing is the scheduler's choice, so each is
	// first grown to cover the others: a sweep of a shape the process has
	// run before then allocates no line state, whatever lands where, as
	// long as its blocks came back from backingPool.
	backings := make(chan *cache.FusedBacking, workers)
	for w := 0; w < workers; w++ {
		backings <- backingPool.Get().(*cache.FusedBacking)
	}
	defer func() {
		held := make([]*cache.FusedBacking, workers)
		for w := range held {
			held[w] = <-backings
		}
		for _, b := range held {
			for _, o := range held {
				b.Cover(o)
			}
		}
		for _, b := range held {
			backingPool.Put(b)
		}
	}()
	points := make([]analysis.Point, len(l3))
	free := make([]bool, len(l3))
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
					free[k] = true
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
			free[k] = l3[k].Ways == 1 || e.fh.L3(i).Stats(0).Evictions == 0
		}
		if c := e.fh.L3(0); g == 0 && c.Stats(0).Evictions == 0 {
			fits := c.FootprintFits(l3)
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
		return nil, nil, n, err
	}
	replicasCloned.Add(int64(len(l3) - n))
	return points, free, n, nil
}
