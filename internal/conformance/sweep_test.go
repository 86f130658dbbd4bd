package conformance

import (
	"fmt"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/prefetch"
	"cachepirate/internal/simulate"
	"cachepirate/internal/stats"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// sweepMachine is a deliberately small single-core system so the sweep
// matrix stays fast: pseudo-LRU private levels (exercising the tree
// policy in the fused engine's private-level fast paths) under a 32KB
// 8-way L3 with the policy under test.
func sweepMachine(policy cache.PolicyKind, pf bool) machine.Config {
	cfg := machine.NehalemConfig()
	cfg.Cores = 1
	cfg.L1 = cache.Config{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64, Policy: cache.PseudoLRU}
	cfg.L2 = cache.Config{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64, Policy: cache.PseudoLRU}
	cfg.L3 = cache.Config{Name: "L3", Size: 32 << 10, Ways: 8, LineSize: 64, Policy: policy}
	if pf {
		cfg.NewPrefetcher = func() prefetch.Prefetcher {
			return prefetch.NewStream(prefetch.StreamConfig{Streams: 4, Degree: 2, Confirm: 2})
		}
	} else {
		cfg.NewPrefetcher = nil
	}
	return cfg
}

// sweepTestTrace mixes reads and writes over a span larger than the
// L3, with enough leading instructions per record to exercise the
// chunked (StepChunk) retirement path the fused engine mirrors.
func sweepTestTrace(n int) *trace.Trace { return sweepSpanTrace(48<<10, n) }

// sweepSpanTrace is sweepTestTrace over a footprint of the given span.
func sweepSpanTrace(span int64, n int) *trace.Trace {
	src := workload.TraceSource{Gen: workload.NewRandomAccess(workload.RandomConfig{
		Name: "mix", Span: span, NInstr: 70, WriteFrac: 0.3, Seed: 7,
	})}
	return trace.Capture(src, n)
}

// sweepSpans is the footprint axis of the sweep matrices, against
// sweepMachine's 32 KB L3 (64 sets of 8 ways; 64 down to 8 sets by
// sets). The fused sweep clones the largest size's point for every size
// the trace cannot overflow, so a matrix whose trace overflows the
// largest size never contains a cloned point. The spans are contiguous,
// so one of L lines asks ceil(L/sets) ways of every set: 4 KB fits the
// smallest size of every matrix, 20 KB fits from 5 ways up by ways and
// from the modulo-indexed 24 KB (48-set) size up by sets — inside a
// replica group at Workers 2 and 3, so a group is part cloned, part
// replayed — 32 KB fits the largest size only, and 48 KB overflows it.
var sweepSpans = []struct {
	name string
	span int64
}{
	{"fits-smallest", 4 << 10},
	{"fits-middle", 20 << 10},
	{"fits-largest", 32 << 10},
	{"overflows", 48 << 10},
}

// spanTraces captures an n-record trace per sweepSpans entry.
func spanTraces(n int) []*trace.Trace {
	trs := make([]*trace.Trace, len(sweepSpans))
	for i, sp := range sweepSpans {
		trs[i] = sweepSpanTrace(sp.span, n)
	}
	return trs
}

// wantClones is how many sizes a serial fused sweep of sweepMachine must
// clone for a contiguous footprint of span bytes with no prefetcher:
// the sizes whose every set is asked for at most Ways lines, bar the
// probe itself, and none when the largest size overflows. It is the fit
// rule in closed form, against cache.ResidentFits' scan of the probe.
func wantClones(cfg simulate.Config, span int64) int {
	l3 := cfg.Machine.L3
	lines := span / l3.LineSize
	if lines > l3.Size/l3.LineSize {
		return 0
	}
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		for w := 1; w <= l3.Ways; w++ {
			sizes = append(sizes, l3.Size/int64(l3.Ways)*int64(w))
		}
	}
	fits := 0
	for _, size := range sizes {
		sets, ways := l3.Sets(), size/(l3.Size/int64(l3.Ways)) // by ways
		if cfg.Mode == simulate.BySets {
			sets, ways = size/(l3.LineSize*int64(l3.Ways)), int64(l3.Ways)
		}
		if (lines+sets-1)/sets <= ways {
			fits++
		}
	}
	return fits - 1
}

// cloned runs check and returns how many sizes fused sweeps cloned
// meanwhile, from the process-wide counters (tests here do not run in
// parallel).
func cloned(check func() error) (int, error) {
	before := simulate.SweepReplicaStats().ReplicasCloned
	err := check()
	return int(simulate.SweepReplicaStats().ReplicasCloned - before), err
}

// TestSweepEquivalenceMatrix pits the fused engine against the
// per-size oracle across every replacement policy, both sweep modes,
// warm and cold measurement, serial vs parallel size partitioning, and
// footprints on either side of every size — so cloned points, whole
// cloned groups and part-cloned groups all meet the oracle. A serial
// sweep must clone exactly the sizes the footprint fits.
func TestSweepEquivalenceMatrix(t *testing.T) {
	traces := spanTraces(4000)
	policies := []cache.PolicyKind{cache.LRU, cache.PseudoLRU, cache.Nehalem, cache.Random}
	for _, policy := range policies {
		for _, mode := range []simulate.SweepMode{simulate.ByWays, simulate.BySets} {
			var sizes []int64
			switch {
			case mode == simulate.ByWays && policy == cache.PseudoLRU:
				// Pseudo-LRU needs power-of-two ways.
				sizes = []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10}
			case mode == simulate.BySets:
				// 24 KB is 48 sets: the modulo arm of the set index.
				sizes = []int64{8 << 10, 16 << 10, 24 << 10, 32 << 10}
			}
			for _, noWarm := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("%v/%v/noWarm=%v/j%d", policy, engineModeName(mode), noWarm, workers)
					t.Run(name, func(t *testing.T) {
						cfg := simulate.Config{
							Machine: sweepMachine(policy, false),
							Sizes:   sizes,
							Mode:    mode,
							NoWarm:  noWarm,
							Workers: workers,
						}
						for i, sp := range sweepSpans {
							t.Run(sp.name, func(t *testing.T) {
								n, err := cloned(func() error { return CheckSweepEquivalence(cfg, traces[i]) })
								if err != nil {
									t.Fatal(err)
								}
								if want := wantClones(cfg, sp.span); n > want || workers == 1 && n != want {
									t.Errorf("the fused sweep cloned %d sizes, the footprint fits %d besides the probe", n, want)
								}
							})
						}
					})
				}
			}
		}
	}
}

// TestSweepEquivalenceWithPrefetcher repeats the check with a stream
// prefetcher attached, in both sweep modes: prefetch training happens
// per replica in the fused engine (each size sees a different miss
// stream), which this pins against per-size machines — and a cloned
// size must have trained its prefetcher exactly as the probe did, on a
// footprint that now includes whatever was prefetched past the span.
func TestSweepEquivalenceWithPrefetcher(t *testing.T) {
	traces := spanTraces(4000)
	for _, policy := range []cache.PolicyKind{cache.Nehalem, cache.LRU} {
		for _, mode := range []simulate.SweepMode{simulate.ByWays, simulate.BySets} {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%v/j%d", policy, workers)
				var sizes []int64 // ByWays: one per way
				if mode == simulate.BySets {
					name = fmt.Sprintf("%v/bysets/j%d", policy, workers)
					sizes = []int64{8 << 10, 24 << 10, 32 << 10}
				}
				t.Run(name, func(t *testing.T) {
					cfg := simulate.Config{
						Machine: sweepMachine(policy, true),
						Sizes:   sizes,
						Mode:    mode,
						Workers: workers,
					}
					for i, sp := range sweepSpans {
						t.Run(sp.name, func(t *testing.T) {
							if err := CheckSweepEquivalence(cfg, traces[i]); err != nil {
								t.Fatal(err)
							}
						})
					}
				})
			}
		}
	}
}

// TestSweepEquivalenceUnsortedSizes: Sizes in no order and with the
// largest size twice. The probe is the first of the largest wherever it
// stands, its duplicate is cloned like any other fit, and the curve is
// the oracle's at every footprint.
func TestSweepEquivalenceUnsortedSizes(t *testing.T) {
	traces := spanTraces(4000)
	for _, mode := range []simulate.SweepMode{simulate.ByWays, simulate.BySets} {
		for _, workers := range []int{1, 3} {
			for i, sp := range sweepSpans {
				t.Run(fmt.Sprintf("%v/j%d/%s", engineModeName(mode), workers, sp.name), func(t *testing.T) {
					cfg := simulate.Config{
						Machine: sweepMachine(cache.Nehalem, false),
						Sizes:   []int64{16 << 10, 32 << 10, 8 << 10, 24 << 10, 32 << 10, 12 << 10, 24 << 10},
						Mode:    mode,
						Workers: workers,
					}
					n, err := cloned(func() error { return CheckSweepEquivalence(cfg, traces[i]) })
					if err != nil {
						t.Fatal(err)
					}
					if want := wantClones(cfg, sp.span); n > want || workers == 1 && n != want {
						t.Errorf("the fused sweep cloned %d sizes, the footprint fits %d besides the probe", n, want)
					}
				})
			}
		}
	}
}

func engineModeName(m simulate.SweepMode) string {
	if m == simulate.ByWays {
		return "byways"
	}
	return "bysets"
}

// TestFootprintProbeProperty throws seeded random sweeps at the
// footprint probe: L3 geometries from 1 to 16 ways over 4 to 96 sets
// (most set counts not powers of two), every policy, both modes, a
// random subset of sizes in random order, prefetcher on and off, warm
// and cold, Workers 1 and 3, random and sequential traces — each over a
// contiguous footprint drawn within two lines of the exact capacity of
// one of the swept sizes, the boundary where the fit test's answer
// flips. Every curve must be the per-size oracle's, and the serial cases
// must between them clone nothing, something and everything.
func TestFootprintProbeProperty(t *testing.T) {
	const cases = 240
	rng := stats.NewRNG(17)
	pick := func(xs []int) int { return xs[rng.Intn(len(xs))] }
	policies := []cache.PolicyKind{cache.LRU, cache.PseudoLRU, cache.Nehalem, cache.Random}
	var none, some, all int
	for i := 0; i < cases; i++ {
		policy := policies[i%len(policies)]
		mode := simulate.SweepMode(i / len(policies) % 2)
		ways := pick([]int{1, 2, 3, 4, 5, 6, 8, 12, 16})
		if policy == cache.PseudoLRU {
			ways = pick([]int{1, 2, 4, 8, 16})
		}
		sets := pick([]int{4, 6, 8, 12, 16, 24, 40, 64, 96})
		mcfg := sweepMachine(policy, rng.Intn(2) == 0)
		mcfg.L3.Ways = ways
		mcfg.L3.Size = int64(sets*ways) * mcfg.L3.LineSize

		// Candidate shrink steps: way counts the policy allows, or any
		// smaller set count. The full size always joins the sweep.
		var steps []int64
		if mode == simulate.ByWays {
			for w := 1; w < ways; w++ {
				if policy != cache.PseudoLRU || w&(w-1) == 0 {
					steps = append(steps, int64(w*sets))
				}
			}
		} else {
			for n := 1; n < sets; n++ {
				steps = append(steps, int64(n*ways))
			}
		}
		sizes := []int64{mcfg.L3.Size}
		for _, k := range rng.Perm(len(steps)) {
			if len(sizes) < 6 {
				sizes = append(sizes, steps[k]*mcfg.L3.LineSize)
			}
		}
		for j, k := range rng.Perm(len(sizes)) {
			sizes[j], sizes[k] = sizes[k], sizes[j]
		}

		// A contiguous footprint of L lines fits a size exactly when L
		// is at most the size's line count, in either mode.
		lines := sizes[rng.Intn(len(sizes))]/mcfg.L3.LineSize + int64(rng.Intn(5)) - 2
		lines = max(lines, 1)
		base := uint64(rng.Intn(1<<12)) * uint64(mcfg.L3.LineSize)
		var gen workload.Generator
		if i%3 == 0 {
			gen = workload.NewSequential(workload.SequentialConfig{
				Name: "seq", Base: base, Span: lines * mcfg.L3.LineSize, NInstr: uint32(rng.Intn(90)), WriteFrac: 0.2,
			})
		} else {
			gen = workload.NewRandomAccess(workload.RandomConfig{
				Name: "rand", Base: base, Span: lines * mcfg.L3.LineSize, NInstr: uint32(rng.Intn(90)), WriteFrac: 0.3, Seed: uint64(i + 1),
			})
		}
		tr := trace.Capture(workload.TraceSource{Gen: gen}, 1500)
		cfg := simulate.Config{
			Machine: mcfg,
			Sizes:   sizes,
			Mode:    mode,
			NoWarm:  rng.Intn(3) == 0,
			Workers: 1 + 2*rng.Intn(2),
		}
		n, err := cloned(func() error { return CheckSweepEquivalence(cfg, tr) })
		if err != nil {
			t.Fatalf("case %d (%v, %v, %d sets x %d ways, sizes %v, prefetcher %v, %d-line footprint at line %d, noWarm %v, j%d): %v",
				i, policy, engineModeName(mode), sets, ways, sizes, mcfg.NewPrefetcher != nil, lines, base/64, cfg.NoWarm, cfg.Workers, err)
		}
		switch {
		case cfg.Workers > 1:
			// How much a wide sweep clones depends on which groups
			// beat the probe; only the serial count is a property of
			// the case.
		case n == 0:
			none++
		case n == len(sizes)-1:
			all++
		default:
			some++
		}
	}
	t.Logf("serial cases: %d cloned nothing, %d some sizes, %d every size but the probe", none, some, all)
	if min(none, some, all) < 5 {
		t.Errorf("the footprints do not straddle the fit boundary: %d serial cases cloned nothing, %d some sizes, %d everything", none, some, all)
	}
}
