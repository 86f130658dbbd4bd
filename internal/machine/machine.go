// Package machine ties the substrates together into a deterministic
// multicore system: per-core in-order CPUs (internal/cpu), a private
// L1/L2 + shared inclusive L3 hierarchy (internal/cache), hardware
// prefetchers (internal/prefetch), and finite-bandwidth DRAM and L3
// ports (internal/mem).
//
// Software contexts (workload generators) attach to cores and the
// machine interleaves them in global cycle order: at every step the
// runnable core with the smallest cycle clock executes its next op, so
// contention for the shared L3 and for bandwidth is causally consistent
// and bit-reproducible. Cores can be suspended and resumed — the
// mechanism the Pirate harness uses for the warm-up phases of Fig. 5 —
// and every context's events are observable only through the
// performance-counter facade (internal/counters), matching the paper's
// measurement discipline.
package machine

import (
	"context"
	"fmt"
	"math"

	"cachepirate/internal/cache"
	"cachepirate/internal/counters"
	"cachepirate/internal/cpu"
	"cachepirate/internal/mem"
	"cachepirate/internal/prefetch"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// Config describes a machine.
type Config struct {
	Cores  int
	CPU    cpu.Params
	L1     cache.Config
	L2     cache.Config
	L3     cache.Config
	DRAM   mem.ServerConfig
	L3Port mem.ServerConfig
	// NewPrefetcher builds each core's L3 prefetcher; nil disables
	// hardware prefetching (fetches == misses, as in Fig. 9).
	NewPrefetcher func() prefetch.Prefetcher
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("machine: cores must be positive, got %d", c.Cores)
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.L3Port.Validate(); err != nil {
		return err
	}
	hc := cache.HierarchyConfig{Cores: c.Cores, L1: c.L1, L2: c.L2, L3: c.L3}
	return hc.Validate()
}

// proc is a software context bound to one core.
type proc struct {
	gen    workload.Generator
	mlp    float64
	offset uint64 // address-space offset isolating this context
	// shared marks a context attached with AttachShared: it shares its
	// address space with its group, so its writes invalidate remote
	// private-cache copies (write-invalidate coherence).
	shared bool

	// Stall cycles of the three accesses that meet no queue — an L1 hit,
	// an L2 hit, and an L3 hit (not of a prefetched line) that finds the
	// port idle. Each depends on the core parameters and the context's
	// MLP alone, so Attach evaluates cpu.AccessCost once with zero
	// delays: the very expression stepCore would evaluate per access, on
	// the same operands — bit-equal — without the divide by the MLP.
	l1HitCost, l2HitCost, l3HitCost float64

	// In-flight op state: ops with many leading instructions retire in
	// scheduler-sized chunks (see StepChunk) so no core's clock jumps
	// far past its peers in one step. Atomic jumps would let a lagging
	// core issue memory requests "in the past", behind future-time
	// requests already accepted by the FIFO bandwidth servers, which
	// artificially stretches their busy periods.
	pending    workload.Op
	pendingIn  uint32
	hasPending bool
}

// StepChunk bounds how many instructions one scheduler step retires.
// Exported because the fused sweep engine (internal/simulate) must
// replicate stepCore's chunked retirement exactly: cycle clocks are
// float64 sums, so retiring the same instructions in different chunk
// sizes would round differently and break bit-identity with the
// per-size path.
const StepChunk = 64

// Machine is the simulated system.
type Machine struct {
	cfg    Config
	cores  []*cpu.Core
	hier   *cache.Hierarchy
	dram   *mem.Server
	l3port *mem.Server
	procs  []*proc
	now    float64 // global time: clock of the last core scheduled

	// clock is the scheduler's view, one entry per core: the core's
	// cycle clock while it is runnable, +Inf otherwise. selectCore scans
	// this dense slice alone; publish keeps an entry current whenever a
	// core's context or suspension changes, stepCore after every step.
	clock []float64

	// Per-core DRAM traffic, for the counter facade.
	memRead  []uint64
	memWrite []uint64
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cache.HierarchyConfig{
		Cores: cfg.Cores, L1: cfg.L1, L2: cfg.L2, L3: cfg.L3,
		NewPrefetcher: cfg.NewPrefetcher,
	})
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		hier:     hier,
		dram:     mem.MustNewServer(cfg.DRAM),
		l3port:   mem.MustNewServer(cfg.L3Port),
		procs:    make([]*proc, cfg.Cores),
		clock:    make([]float64, cfg.Cores),
		memRead:  make([]uint64, cfg.Cores),
		memWrite: make([]uint64, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		core, err := cpu.NewCore(cfg.CPU)
		if err != nil {
			return nil, err
		}
		m.cores = append(m.cores, core)
		m.publish(i)
	}
	return m, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Cores returns the core count (also the counters.Source method).
func (m *Machine) Cores() int { return m.cfg.Cores }

// Hierarchy exposes the cache hierarchy (reference simulation and
// white-box tests; the measurement harness must use counters only).
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Now returns the global time: the cycle clock of the most recently
// scheduled core. It is monotone under min-clock scheduling.
func (m *Machine) Now() float64 { return m.now }

// Attach binds gen to core. Each core's context gets a disjoint
// address-space offset so co-running instances of the same benchmark
// do not share data (separate processes, as in the paper's co-run
// experiments). Attaching to an occupied core replaces its context and
// flushes the core's cached state.
func (m *Machine) Attach(core int, gen workload.Generator) error {
	if core < 0 || core >= m.cfg.Cores {
		return fmt.Errorf("machine: core %d out of range [0,%d)", core, m.cfg.Cores)
	}
	if gen == nil {
		return fmt.Errorf("machine: nil generator for core %d", core)
	}
	if m.procs[core] != nil {
		m.hier.FlushCore(core)
	}
	mlp := gen.MLP()
	if mlp < 1 {
		mlp = 1
	}
	served := func(l cache.Level) float64 {
		return cpu.AccessCost(m.cfg.CPU, cache.Outcome{ServedBy: l}, 0, 0, mlp)
	}
	m.procs[core] = &proc{
		gen: gen, mlp: mlp, offset: uint64(core) << 44,
		l1HitCost: served(cache.LevelL1), l2HitCost: served(cache.LevelL2), l3HitCost: served(cache.LevelL3),
	}
	m.cores[core].Resume(m.now)
	m.publish(core)
	return nil
}

// AttachBlocks binds a trace to core as a looping op stream
// (workload.FromBlocks). FromBlocks preserves record order exactly, so
// the simulation does not depend on whether src is in memory or
// streamed (pinned in internal/conformance).
func (m *Machine) AttachBlocks(core int, name string, src trace.BlockSource, mlp float64) error {
	return m.Attach(core, workload.NewFromBlocks(name, src, mlp, 0))
}

// MustAttach is Attach but panics on error.
func (m *Machine) MustAttach(core int, gen workload.Generator) {
	if err := m.Attach(core, gen); err != nil {
		panic(err)
	}
}

// AttachShared binds gen to core inside a shared address space: every
// context attached with the same group sees the same physical
// addresses, modelling the threads of one multithreaded process.
// Writes to lines cached by sibling cores invalidate the remote copies
// and pay an upgrade cost — the coherence traffic a real multithreaded
// Target generates. Group numbers live in their own region of the
// address space, disjoint from per-core private offsets.
func (m *Machine) AttachShared(core int, group uint32, gen workload.Generator) error {
	if err := m.Attach(core, gen); err != nil {
		return err
	}
	p := m.procs[core]
	p.offset = (1<<19 | uint64(group)) << 44
	p.shared = true
	m.hier.SetFullBackInvalidate(true)
	return nil
}

// Detach removes core's context and flushes its cached state.
func (m *Machine) Detach(core int) {
	if m.procs[core] != nil {
		m.procs[core] = nil
		m.hier.FlushCore(core)
		m.publish(core)
	}
}

// Attached reports whether core has a context.
func (m *Machine) Attached(core int) bool { return m.procs[core] != nil }

// Suspend halts core (its context keeps its cache contents).
func (m *Machine) Suspend(core int) {
	m.cores[core].Suspend()
	m.publish(core)
}

// Resume lets core run again from the current global time.
func (m *Machine) Resume(core int) {
	m.cores[core].Resume(m.now)
	m.publish(core)
}

// Suspended reports whether core is halted.
func (m *Machine) Suspended(core int) bool { return m.cores[core].Suspended() }

// runnable reports whether core can execute.
func (m *Machine) runnable(core int) bool {
	return m.procs[core] != nil && !m.cores[core].Suspended()
}

// publish refreshes core's entry of the scheduler's view.
func (m *Machine) publish(core int) {
	if m.runnable(core) {
		m.clock[core] = m.cores[core].Cycles()
	} else {
		m.clock[core] = math.Inf(1)
	}
}

// selectCore returns the runnable core with the smallest cycle clock
// (the lowest-numbered of equals), or -1 when nothing is runnable — the
// single scheduling rule shared by Step and RunCycles.
func (m *Machine) selectCore() int {
	sel, best := -1, math.Inf(1)
	for i, c := range m.clock {
		if c < best {
			sel, best = i, c
		}
	}
	return sel
}

// Step executes one op on the runnable core with the smallest cycle
// clock. It returns false when no core is runnable.
//
//lint:hotpath
func (m *Machine) Step() bool {
	sel := m.selectCore()
	if sel < 0 {
		return false
	}
	m.stepCore(sel)
	return true
}

// stepCore executes core's next op and charges its timing. The
// hierarchy's outcome arrives as one word (cache.PackedOutcome): a
// private-level hit that moved no data — the whole word equals
// PackedL1Hit or PackedL2Hit — is charged its precomputed cost without
// a look at the bandwidth servers, which such an access never uses;
// every other word is unpacked into its port uses and DRAM lines.
//
//lint:hotpath
func (m *Machine) stepCore(core int) {
	p := m.procs[core]
	c := m.cores[core]
	if c.Cycles() > m.now {
		m.now = c.Cycles()
	}

	if !p.hasPending {
		p.pending = p.gen.Next()
		p.pendingIn = p.pending.NInstr
		p.hasPending = true
	}
	if p.pendingIn > StepChunk {
		c.RetireInstrs(StepChunk)
		p.pendingIn -= StepChunk
		m.clock[core] = c.Cycles()
		return
	}
	if p.pendingIn > 0 {
		c.RetireInstrs(uint64(p.pendingIn))
	}
	op := p.pending
	p.hasPending = false
	now := c.Cycles()
	addr := cache.Addr(op.Addr + p.offset) // offset-adjusted address, computed once
	var out cache.PackedOutcome
	if op.NonTemporal {
		out = m.hier.AccessNonTemporalPacked(core, addr)
	} else {
		out = m.hier.AccessPacked(core, addr, op.Write)
	}

	var cost float64
	switch out {
	case cache.PackedL1Hit:
		cost = p.l1HitCost
	case cache.PackedL2Hit:
		cost = p.l2HitCost
	default:
		cost = m.chargeShared(core, p, out, now)
	}
	if p.shared && op.Write && !op.NonTemporal {
		// Write-invalidate coherence: evict sibling copies; finding
		// any costs an upgrade round-trip through the shared L3.
		inv, wb := m.hier.InvalidateRemoteCopies(core, addr)
		if inv > 0 {
			cost += m.cfg.CPU.L3Cost
		}
		if wb > 0 {
			m.dram.Request(now, wb)
			m.memWrite[core] += uint64(wb)
		}
	}
	c.RetireAccess(cost)
	m.clock[core] = c.Cycles()
}

// chargeShared books an access that left the private levels, or wrote
// a line back to DRAM from them, on the shared servers — the L3 port,
// then the DRAM read, then the DRAM writeback, each only if the word
// says the access reached it — and returns the stall cycles to charge.
//
//lint:hotpath
func (m *Machine) chargeShared(core int, p *proc, out cache.PackedOutcome, now float64) float64 {
	lineSize := m.hier.LineSize()
	var l3Queue, memDelay float64
	if uses := out.L3Uses(); uses > 0 {
		// Queueing at the shared L3 port; the unloaded port service
		// time is already folded into the CPU's L3Cost.
		if free := m.l3port.NextFree(); free > now {
			l3Queue = free - now
		}
		m.l3port.Request(now, uses*lineSize)
	}
	if lines := out.ReadLines(); lines > 0 {
		// Queueing backlog before this request: the delay a prefetch
		// hit sees when DRAM is saturated (the data is not ahead of
		// demand any more).
		var backlog float64
		if free := m.dram.NextFree(); free > now {
			backlog = free - now
		}
		done := m.dram.Request(now, lines*lineSize)
		if out.ServedBy() == cache.LevelMem {
			memDelay = done - now
		} else {
			memDelay = backlog
		}
		m.memRead[core] += uint64(lines * lineSize)
	}
	if lines := out.WriteLines(); lines > 0 {
		// Writebacks consume DRAM bandwidth but do not stall the core.
		m.dram.Request(now, lines*lineSize)
		m.memWrite[core] += uint64(lines * lineSize)
	}
	if out == cache.PackedOutcome(cache.LevelL3) && l3Queue == 0 {
		return p.l3HitCost
	}
	// AccessCost reads the served level and the prefetch-hit bit only.
	served := cache.Outcome{ServedBy: out.ServedBy(), PrefetchHit: out.PrefetchHit()}
	return cpu.AccessCost(m.cfg.CPU, served, memDelay, l3Queue, p.mlp)
}

// RunSteps executes up to n global steps, returning how many ran.
func (m *Machine) RunSteps(n int) int {
	for i := 0; i < n; i++ {
		if !m.Step() {
			return i
		}
	}
	return n
}

// RunInstructions runs the machine until core has retired at least n
// more instructions (co-runners make progress too). It returns an
// error if core is not runnable.
func (m *Machine) RunInstructions(core int, n uint64) error {
	return m.RunInstructionsCtx(context.Background(), core, n)
}

// cancelCheckSteps is how many machine steps RunInstructionsCtx
// executes between context checks. Each step retires up to StepChunk
// instructions, so the check granularity is coarse enough to keep the
// ctx.Err atomic load out of the per-step cost yet fine enough that a
// multi-second replay notices a dead client within milliseconds.
const cancelCheckSteps = 1024

// RunInstructionsCtx is RunInstructions with cooperative cancellation:
// every cancelCheckSteps steps it polls ctx and abandons the replay
// with ctx's error once the context is done. A cancelled run leaves
// the machine in a consistent mid-replay state (counters readable,
// cores attached); it must simply not be trusted as a completed
// measurement.
func (m *Machine) RunInstructionsCtx(ctx context.Context, core int, n uint64) error {
	if !m.runnable(core) {
		return fmt.Errorf("machine: core %d not runnable", core)
	}
	c := m.cores[core]
	target := c.Instructions() + n
	steps := 0
	for c.Instructions() < target {
		if !m.Step() {
			return fmt.Errorf("machine: no runnable cores before core %d reached %d instructions", core, target)
		}
		if steps++; steps >= cancelCheckSteps {
			steps = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunCycles runs until every runnable core's clock has passed
// m.Now() + n cycles (or nothing is runnable). The deadline check is
// folded into the min-clock selection: Step always runs the runnable
// core with the smallest clock, so "some runnable core is below the
// deadline" is exactly "the selected core is below the deadline", and
// one O(cores) scan per step suffices where a separate pre-check would
// scan twice.
//
//lint:hotpath
func (m *Machine) RunCycles(n float64) {
	deadline := m.now + n
	for {
		sel := m.selectCore()
		if sel < 0 || m.clock[sel] >= deadline {
			return
		}
		m.stepCore(sel)
	}
}

// ReadCounters implements counters.Source: core's cumulative events.
func (m *Machine) ReadCounters(core int) counters.Sample {
	c := m.cores[core]
	l3 := m.hier.L3().Stats(cache.Owner(core))
	return counters.Sample{
		Instructions:  c.Instructions(),
		Cycles:        uint64(c.Cycles()),
		MemAccesses:   c.MemAccesses(),
		L3Accesses:    l3.Accesses,
		L3Misses:      l3.Misses,
		L3Fetches:     l3.Fetches(),
		L3Prefetches:  l3.PrefetchFills,
		MemReadBytes:  m.memRead[core],
		MemWriteBytes: m.memWrite[core],
	}
}

var _ counters.Source = (*Machine)(nil)
