package machine

import (
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/prefetch"
	"cachepirate/internal/stats"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// randomTrace builds a deterministic random trace spanning span bytes.
func randomTrace(n int, span uint64) *trace.Trace {
	rng := stats.NewRNG(3)
	tr := &trace.Trace{Records: make([]trace.Record, n)}
	for i := range tr.Records {
		tr.Records[i] = trace.Record{
			NInstr: uint32(rng.Uint64n(8)),
			Addr:   rng.Uint64n(span/64) * 64,
			Write:  rng.Uint64n(4) == 0,
		}
	}
	return tr
}

// TestReplayAllocFree pins the allocation-free replay contract: once a
// machine is attached to a looping trace generator, the entire per-op
// path — FromBlocks.Next over a Replayer, stepCore, every cache level's
// probe/fill, and the bandwidth servers — must not allocate. A single
// allocation per op would dominate the sweep's runtime and gate the
// parallel workers on the allocator.
func TestReplayAllocFree(t *testing.T) {
	cases := []struct {
		name string
		pf   func() prefetch.Prefetcher
	}{
		{"no-prefetch", nil},
		{"stream-prefetch", func() prefetch.Prefetcher {
			return prefetch.NewStream(prefetch.StreamConfig{})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NehalemConfigNoPrefetch()
			cfg.NewPrefetcher = tc.pf
			m := MustNew(cfg)
			// Working set spills the L3 so misses, evictions and
			// back-invalidations all run, not just the L1 hit path.
			tr := randomTrace(20_000, 2*uint64(cfg.L3.Size))
			m.MustAttach(0, workload.NewFromBlocks("alloc", trace.NewReplayer(tr, false), 1, 0))
			m.RunSteps(5000) // warm: maps, prefetch state, server cursors

			avg := testing.AllocsPerRun(2000, func() {
				m.Step()
			})
			if avg != 0 {
				t.Errorf("replay path allocates %.2f allocs/op, want 0", avg)
			}

			// The same replay with co-runners on two more cores: steps
			// now interleave contexts, evict each other's L3 lines and
			// queue at the port.
			for c := 1; c <= 2; c++ {
				m.MustAttach(c, workload.NewFromBlocks("alloc", trace.NewReplayer(tr, false), 4, 0))
			}
			m.RunSteps(5000)
			if avg := testing.AllocsPerRun(2000, func() { m.Step() }); avg != 0 {
				t.Errorf("co-run replay allocates %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// TestGeneratorNextAllocFree pins the generator side alone: replaying a
// trace through FromBlocks over a Replayer (wrapping every 4096 ops)
// must not allocate per op.
func TestGeneratorNextAllocFree(t *testing.T) {
	gen := workload.NewFromBlocks("alloc", trace.NewReplayer(randomTrace(4096, 1<<20), false), 1, 0)
	avg := testing.AllocsPerRun(5000, func() {
		gen.Next()
	})
	if avg != 0 {
		t.Errorf("FromBlocks.Next allocates %.2f allocs/op, want 0", avg)
	}
}

// TestHotPathPrimitivesAllocFree gates every //lint:hotpath-annotated
// primitive on its own, complementing the fused replay gate above. The
// hotalloc analyzer proves these paths contain no allocating constructs
// statically; these runtime gates catch what static analysis cannot
// see, such as map or slice growth inside calls it treats as opaque.
func TestHotPathPrimitivesAllocFree(t *testing.T) {
	gate := func(t *testing.T, name string, f func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(2000, f); avg != 0 {
			t.Errorf("%s allocates %.2f allocs/op, want 0", name, avg)
		}
	}

	t.Run("cache", func(t *testing.T) {
		c := cache.MustNew(cache.Config{Size: 32 << 10, Ways: 8, LineSize: 64, Owners: 2})
		rng := stats.NewRNG(11)
		// Span far beyond the cache so misses, fills and evictions all run.
		next := func() cache.Addr { return cache.Addr(rng.Uint64n(1<<21) &^ 63) }
		gate(t, "Cache.Access", func() { c.Access(next(), false, 0) })
		gate(t, "Cache.AccessFill", func() { c.AccessFill(next(), rng.Uint64n(4) == 0, 1) })
		gate(t, "Cache.Probe", func() { c.Probe(next()) })
		gate(t, "Cache.Fill", func() { c.Fill(next(), 0, false, false) })
		gate(t, "Cache.FillMissed", func() {
			if a := next(); !c.Probe(a) {
				c.FillMissed(a, 1, false, false)
			}
		})
	})

	t.Run("hierarchy", func(t *testing.T) {
		m := MustNew(NehalemConfigNoPrefetch())
		h := m.Hierarchy()
		rng := stats.NewRNG(12)
		span := 2 * uint64(m.Config().L3.Size)
		next := func() cache.Addr { return cache.Addr(rng.Uint64n(span) &^ 63) }
		for i := 0; i < 4096; i++ { // warm every level past cold fills
			h.Access(0, next(), false)
		}
		gate(t, "Hierarchy.Access", func() { h.Access(0, next(), rng.Uint64n(8) == 0) })
		gate(t, "Hierarchy.AccessPacked", func() { h.AccessPacked(1, next(), rng.Uint64n(8) == 0) })
		gate(t, "Hierarchy.AccessNonTemporal", func() { h.AccessNonTemporal(0, next()) })
		gate(t, "Hierarchy.AccessNonTemporalPacked", func() { h.AccessNonTemporalPacked(1, next()) })
	})

	t.Run("machine", func(t *testing.T) {
		cfg := NehalemConfigNoPrefetch()
		m := MustNew(cfg)
		tr := randomTrace(20_000, 2*uint64(cfg.L3.Size))
		m.MustAttach(0, workload.NewFromBlocks("alloc", trace.NewReplayer(tr, false), 1, 0))
		m.RunSteps(5000) // warm: maps, server cursors
		gate(t, "Machine.Step", func() { m.Step() })
		gate(t, "Machine.RunCycles", func() { m.RunCycles(3) })
	})

	// The Pirate co-run's step: a live Target beside two line-stride
	// scanners, so the scheduler's view, the packed walk's longest path
	// (private misses, L3 hit, two fills) and the port server all run.
	t.Run("corun", func(t *testing.T) {
		m := MustNew(NehalemConfigNoPrefetch())
		m.MustAttach(0, workload.MustByName("omnetpp").New(1))
		for c := 1; c <= 2; c++ {
			m.MustAttach(c, workload.NewSequential(workload.SequentialConfig{Name: "scanner", Span: 1 << 20, MLP: 5}))
		}
		m.RunSteps(100_000)
		gate(t, "Machine.Step (co-run)", func() { m.Step() })
	})

	t.Run("trace", func(t *testing.T) {
		rep := trace.NewReplayer(randomTrace(4096, 1<<20), false)
		gate(t, "Replayer.NextBlock", func() {
			if blk, _ := rep.NextBlock(); blk == nil {
				rep.Rewind()
			}
		})
	})

	t.Run("prefetch", func(t *testing.T) {
		st := prefetch.NewStream(prefetch.StreamConfig{})
		var a uint64
		gate(t, "Stream.Observe", func() { st.Observe(a, true); a++ })
	})
}
