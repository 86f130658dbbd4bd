// Package machine ties the substrates together into a deterministic
// multicore system: per-core in-order CPUs and finite-bandwidth DRAM
// and L3 ports (the timing model, timing.go), a private L1/L2 + shared
// inclusive L3 hierarchy (internal/cache), and hardware prefetchers
// (internal/prefetch).
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
	"cachepirate/internal/prefetch"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// Config describes a machine.
type Config struct {
	Cores  int
	CPU    Params
	L1     cache.Config
	L2     cache.Config
	L3     cache.Config
	DRAM   ServerConfig
	L3Port ServerConfig
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
	costs  Costs
	offset uint64 // address-space offset isolating this context
	// shared marks a context attached with AttachShared: it shares its
	// address space with its group, so its writes invalidate remote
	// private-cache copies (write-invalidate coherence).
	shared bool

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

// coreClock is one hardware context's clocks.
type coreClock struct {
	cycles    float64
	instrs    uint64
	memAccs   uint64
	suspended bool
}

// Machine is the simulated system.
type Machine struct {
	cfg    Config
	cores  []coreClock
	hier   *cache.Hierarchy
	shared Shared
	procs  []*proc
	now    float64 // global time: clock of the last core scheduled

	// clock is the scheduler's view, one entry per core: the core's
	// cycle clock while it is runnable, +Inf otherwise. selectCore scans
	// this dense slice alone; publish keeps an entry current whenever a
	// core's context or suspension changes, stepCore after every step.
	clock []float64

	traffic []Traffic // per core, for the counter facade
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
		cfg:     cfg,
		hier:    hier,
		shared:  NewShared(cfg),
		cores:   make([]coreClock, cfg.Cores),
		procs:   make([]*proc, cfg.Cores),
		clock:   make([]float64, cfg.Cores),
		traffic: make([]Traffic, cfg.Cores),
	}
	for i := range m.cores {
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
	m.procs[core] = &proc{gen: gen, costs: NewCosts(m.cfg.CPU, gen.MLP()), offset: uint64(core) << 44}
	m.Resume(core)
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

// Suspend halts core (its context keeps its cache contents); the
// scheduler skips it.
func (m *Machine) Suspend(core int) {
	m.cores[core].suspended = true
	m.publish(core)
}

// Resume lets core run again from the current global time, so it does
// not "catch up" on the time it spent halted: its clock jumps forward
// to the global time, and never back.
func (m *Machine) Resume(core int) {
	c := &m.cores[core]
	c.suspended = false
	c.cycles = max(c.cycles, m.now)
	m.publish(core)
}

// Suspended reports whether core is halted.
func (m *Machine) Suspended(core int) bool { return m.cores[core].suspended }

// runnable reports whether core can execute.
func (m *Machine) runnable(core int) bool {
	return m.procs[core] != nil && !m.cores[core].suspended
}

// publish refreshes core's entry of the scheduler's view.
func (m *Machine) publish(core int) {
	if m.runnable(core) {
		m.clock[core] = m.cores[core].cycles
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
// every other word goes to Shared.Charge.
//
//lint:hotpath
func (m *Machine) stepCore(core int) {
	p := m.procs[core]
	c := &m.cores[core]
	if c.cycles > m.now {
		m.now = c.cycles
	}

	if !p.hasPending {
		p.pending = p.gen.Next()
		p.pendingIn = p.pending.NInstr
		p.hasPending = true
	}
	costs := &p.costs
	if p.pendingIn > StepChunk {
		c.instrs += StepChunk
		c.cycles += costs.Chunk
		p.pendingIn -= StepChunk
		m.clock[core] = c.cycles
		return
	}
	if p.pendingIn > 0 {
		c.instrs += uint64(p.pendingIn)
		c.cycles += costs.Instrs(p.pendingIn)
	}
	op := p.pending
	p.hasPending = false
	now := c.cycles
	addr := cache.Addr(op.Addr + p.offset) // offset-adjusted address, computed once
	var out cache.PackedOutcome
	if op.NonTemporal {
		out = m.hier.AccessNonTemporalPacked(core, addr)
	} else {
		out = m.hier.AccessPacked(core, addr, op.Write)
	}

	// The access retires as one instruction: BaseCPI plus its stall.
	var stall, retire float64
	switch out {
	case cache.PackedL1Hit:
		stall, retire = costs.L1Hit, costs.L1Retire
	case cache.PackedL2Hit:
		stall, retire = costs.L2Hit, costs.L2Retire
	default:
		stall = m.shared.Charge(out, now, costs, &m.traffic[core])
		retire = costs.CPU.BaseCPI + stall
	}
	if p.shared && op.Write && !op.NonTemporal {
		// Write-invalidate coherence: evict sibling copies; finding
		// any costs an upgrade round-trip through the shared L3.
		inv, wb := m.hier.InvalidateRemoteCopies(core, addr)
		if inv > 0 {
			retire = costs.CPU.BaseCPI + (stall + costs.CPU.L3Cost)
		}
		if wb > 0 {
			m.shared.WriteBack(now, wb, &m.traffic[core])
		}
	}
	c.instrs++
	c.memAccs++
	c.cycles += retire
	m.clock[core] = c.cycles
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

// WarmTo runs each listed core, in order, until it has retired at least
// floor instructions in all; a core already there does not run. Warming
// co-runners to one absolute count, rather than each by the same
// increment, keeps a later core from getting extra runtime: under
// min-clock scheduling they advance together, so the cores after the
// first usually have little or nothing left to run.
func (m *Machine) WarmTo(floor uint64, cores ...int) error {
	for _, c := range cores {
		if cur := m.cores[c].instrs; cur < floor {
			if err := m.RunInstructions(c, floor-cur); err != nil {
				return err
			}
		}
	}
	return nil
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
// measurement. A count n that would wrap the core's 64-bit instruction
// counter is an error before any step.
func (m *Machine) RunInstructionsCtx(ctx context.Context, core int, n uint64) error {
	if !m.runnable(core) {
		return fmt.Errorf("machine: core %d not runnable", core)
	}
	c := &m.cores[core]
	target := c.instrs + n
	if target < c.instrs {
		return fmt.Errorf("machine: core %d at %d instructions cannot run %d more: the count would wrap", core, c.instrs, n)
	}
	steps := 0
	for c.instrs < target {
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
	c := &m.cores[core]
	return Sample(c.instrs, c.memAccs, c.cycles, m.hier.L3().Stats(cache.Owner(core)), m.traffic[core])
}

var _ counters.Source = (*Machine)(nil)
