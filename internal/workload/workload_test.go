package workload

import (
	"testing"

	"cachepirate/internal/trace"
)

func TestSequentialWrapsAndStrides(t *testing.T) {
	g := NewSequential(SequentialConfig{Name: "s", Span: 256, Elem: 64})
	var addrs []uint64
	for i := 0; i < 6; i++ {
		addrs = append(addrs, g.Next().Addr)
	}
	want := []uint64{0, 64, 128, 192, 0, 64}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("addr[%d] = %d, want %d", i, addrs[i], want[i])
		}
	}
}

func TestSequentialBaseOffset(t *testing.T) {
	g := NewSequential(SequentialConfig{Name: "s", Base: 1 << 20, Span: 128})
	if a := g.Next().Addr; a != 1<<20 {
		t.Errorf("first addr = %#x, want 1MB base", a)
	}
}

func TestSequentialSubLineElem(t *testing.T) {
	g := NewSequential(SequentialConfig{Name: "s", Span: 256, Elem: 16})
	// 4 accesses per line: addresses 0,16,32,48 then 64...
	for i := 0; i < 4; i++ {
		if a := g.Next().Addr; a/64 != 0 {
			t.Fatalf("access %d left line 0: %d", i, a)
		}
	}
	if a := g.Next().Addr; a/64 != 1 {
		t.Errorf("5th access should be line 1, got %d", a)
	}
}

func TestSequentialWriteFrac(t *testing.T) {
	g := NewSequential(SequentialConfig{Name: "s", Span: 1 << 20, WriteFrac: 0.5})
	writes := 0
	for i := 0; i < 10000; i++ {
		if g.Next().Write {
			writes++
		}
	}
	if writes < 4500 || writes > 5500 {
		t.Errorf("write fraction = %d/10000, want ~5000", writes)
	}
}

func TestSequentialDeterministicReset(t *testing.T) {
	g := NewSequential(SequentialConfig{Name: "s", Span: 1 << 16, WriteFrac: 0.3})
	var first []Op
	for i := 0; i < 100; i++ {
		first = append(first, g.Next())
	}
	g.Reset(1)
	for i := 0; i < 100; i++ {
		if op := g.Next(); op != first[i] {
			t.Fatalf("reset stream diverged at %d", i)
		}
	}
}

func TestBlockedStreamReusesChunk(t *testing.T) {
	g := NewBlockedStream(BlockedConfig{Name: "b", Span: 512, ChunkSize: 128, Passes: 2, Elem: 64})
	// Chunk 0 is lines {0,64}; two passes: 0,64,0,64 then chunk 1: 128,192,...
	want := []uint64{0, 64, 0, 64, 128, 192, 128, 192, 256}
	for i, w := range want {
		if a := g.Next().Addr; a != w {
			t.Fatalf("addr[%d] = %d, want %d", i, a, w)
		}
	}
}

func TestBlockedStreamWrapsWholeSpan(t *testing.T) {
	g := NewBlockedStream(BlockedConfig{Name: "b", Span: 256, ChunkSize: 128, Passes: 1, Elem: 64})
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		seen[g.Next().Addr] = true
	}
	for _, a := range []uint64{0, 64, 128, 192} {
		if !seen[a] {
			t.Errorf("address %d never touched", a)
		}
	}
}

func TestBlockedStreamPanicsOnBadChunk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("chunk > span accepted")
		}
	}()
	NewBlockedStream(BlockedConfig{Name: "b", Span: 128, ChunkSize: 256})
}

func TestRandomAccessStaysInSpan(t *testing.T) {
	g := NewRandomAccess(RandomConfig{Name: "r", Base: 4096, Span: 1 << 16, Seed: 9})
	for i := 0; i < 10000; i++ {
		a := g.Next().Addr
		if a < 4096 || a >= 4096+1<<16 {
			t.Fatalf("address %d outside [4096, 4096+64K)", a)
		}
		if a%64 != 0 {
			t.Fatalf("address %d not line-aligned", a)
		}
	}
}

func TestRandomAccessCoversSpan(t *testing.T) {
	g := NewRandomAccess(RandomConfig{Name: "r", Span: 64 * 64, Seed: 3})
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		seen[g.Next().Addr] = true
	}
	if len(seen) != 64 {
		t.Errorf("covered %d/64 lines", len(seen))
	}
}

func TestPointerChaseVisitsEveryLineOnce(t *testing.T) {
	const lines = 64
	g := NewPointerChase(ChaseConfig{Name: "p", Span: lines * 64, Seed: 5})
	seen := map[uint64]int{}
	for i := 0; i < lines; i++ {
		seen[g.Next().Addr]++
	}
	if len(seen) != lines {
		t.Fatalf("cycle visited %d/%d lines in one lap", len(seen), lines)
	}
	for a, n := range seen {
		if n != 1 {
			t.Errorf("line %d visited %d times in one lap", a, n)
		}
	}
	// Second lap revisits the same cycle in the same order.
	first := g.Next().Addr
	for i := 1; i < lines; i++ {
		g.Next()
	}
	if again := g.Next().Addr; again != first {
		t.Error("cycle order changed between laps")
	}
}

func TestPointerChaseMLPIsOne(t *testing.T) {
	g := NewPointerChase(ChaseConfig{Name: "p", Span: 1 << 16})
	if g.MLP() != 1 {
		t.Errorf("pointer chase MLP = %g, want 1", g.MLP())
	}
}

func TestHotColdSkew(t *testing.T) {
	g := NewHotCold(HotColdConfig{Name: "h", Span: 1 << 20, Skew: 1.0, Seed: 7})
	counts := map[uint64]int{}
	for i := 0; i < 50000; i++ {
		counts[g.Next().Addr]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	// Under heavy skew the hottest line must dominate the mean.
	mean := 50000 / len(counts)
	if max < 10*mean {
		t.Errorf("hot line count %d not >> mean %d", max, mean)
	}
}

func TestHotColdStaysInSpan(t *testing.T) {
	g := NewHotCold(HotColdConfig{Name: "h", Base: 1 << 30, Span: 1 << 16, Seed: 2})
	for i := 0; i < 5000; i++ {
		a := g.Next().Addr
		if a < 1<<30 || a >= 1<<30+1<<16 {
			t.Fatalf("address %#x outside span", a)
		}
	}
}

func TestMixWeights(t *testing.T) {
	a := NewSequential(SequentialConfig{Name: "a", Span: 1 << 12})
	b := NewSequential(SequentialConfig{Name: "b", Base: 1 << 30, Span: 1 << 12})
	m := NewMix("m", 11, Component{Gen: a, Weight: 3}, Component{Gen: b, Weight: 1})
	na, nb := 0, 0
	for i := 0; i < 20000; i++ {
		if m.Next().Addr >= 1<<30 {
			nb++
		} else {
			na++
		}
	}
	ratio := float64(na) / float64(nb)
	if ratio < 2.5 || ratio > 3.6 {
		t.Errorf("mix ratio = %g, want ~3", ratio)
	}
}

func TestMixMLPWeightedAverage(t *testing.T) {
	a := NewSequential(SequentialConfig{Name: "a", Span: 1 << 12, MLP: 8})
	b := NewPointerChase(ChaseConfig{Name: "b", Span: 1 << 12}) // MLP 1
	m := NewMix("m", 1, Component{Gen: a, Weight: 1}, Component{Gen: b, Weight: 1})
	if got := m.MLP(); got != 4.5 {
		t.Errorf("mix MLP = %g, want 4.5", got)
	}
}

func TestMixPanicsOnEmptyAndBadWeight(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty", func() { NewMix("m", 1) })
	mustPanic("weight", func() {
		NewMix("m", 1, Component{Gen: NewSequential(SequentialConfig{Name: "a", Span: 64}), Weight: 0})
	})
}

func TestPhasedSwitchesOnInstructionBudget(t *testing.T) {
	a := NewSequential(SequentialConfig{Name: "a", Span: 1 << 12, NInstr: 9}) // 10 instrs/op
	b := NewSequential(SequentialConfig{Name: "b", Base: 1 << 30, Span: 1 << 12, NInstr: 9})
	p := NewPhased("p", Phase{Gen: a, Instrs: 100}, Phase{Gen: b, Instrs: 50})
	phase0, phase1 := 0, 0
	for i := 0; i < 150; i++ { // 1500 instructions = 10 full cycles
		if p.Next().Addr >= 1<<30 {
			phase1++
		} else {
			phase0++
		}
	}
	if phase0 != 100 || phase1 != 50 {
		t.Errorf("phase op counts = %d/%d, want 100/50", phase0, phase1)
	}
}

func TestPhasedReset(t *testing.T) {
	a := NewSequential(SequentialConfig{Name: "a", Span: 1 << 12, NInstr: 9})
	b := NewSequential(SequentialConfig{Name: "b", Base: 1 << 30, Span: 1 << 12, NInstr: 9})
	p := NewPhased("p", Phase{Gen: a, Instrs: 20}, Phase{Gen: b, Instrs: 20})
	for i := 0; i < 3; i++ {
		p.Next()
	}
	if p.cur != 1 {
		t.Fatalf("expected phase 1 after 30 instrs, got %d", p.cur)
	}
	p.Reset(1)
	if p.cur != 0 {
		t.Error("reset did not return to phase 0")
	}
}

func TestComputeBoundProperties(t *testing.T) {
	g := NewComputeBound("c", 64*KB, 20)
	op := g.Next()
	if op.NInstr != 20 {
		t.Errorf("NInstr = %d, want 20", op.NInstr)
	}
	if g.WorkingSet() != 64*KB {
		t.Errorf("WorkingSet = %d", g.WorkingSet())
	}
}

func TestTraceSourceAndFromBlocksRoundTrip(t *testing.T) {
	g := NewSequential(SequentialConfig{Name: "s", Span: 1 << 12, NInstr: 3, WriteFrac: 0.5})
	tr := trace.Capture(TraceSource{Gen: g}, 50)
	g.Reset(1)
	replay := NewFromBlocks("s-replay", trace.NewReplayer(tr, false), 4, 1<<12)
	for i := 0; i < 50; i++ {
		want, got := g.Next(), replay.Next()
		if want != got {
			t.Fatalf("replayed op %d = %+v, want %+v", i, got, want)
		}
	}
	// Loops back to the start.
	g.Reset(1)
	if got, want := replay.Next(), g.Next(); got != want {
		t.Errorf("loop restart op = %+v, want %+v", got, want)
	}
	if replay.MLP() != 4 || replay.WorkingSet() != 1<<12 {
		t.Error("FromBlocks hints not preserved")
	}
}

func TestSuiteRegistry(t *testing.T) {
	s := Suite()
	if len(s) < 15 {
		t.Fatalf("suite has only %d benchmarks", len(s))
	}
	seen := map[string]bool{}
	for _, spec := range s {
		if seen[spec.Name] {
			t.Errorf("duplicate benchmark %q", spec.Name)
		}
		seen[spec.Name] = true
		if spec.Description == "" || spec.Paper == "" {
			t.Errorf("%s: missing description or paper reference", spec.Name)
		}
		g := spec.New(42)
		if g == nil {
			t.Fatalf("%s: nil generator", spec.Name)
		}
		for i := 0; i < 1000; i++ {
			op := g.Next()
			if op.Addr%8 != 0 && op.Addr%16 != 0 {
				// generators may use sub-line elements but stay aligned
				t.Fatalf("%s: unaligned address %d", spec.Name, op.Addr)
			}
		}
		if g.MLP() < 1 {
			t.Errorf("%s: MLP %g < 1", spec.Name, g.MLP())
		}
	}
	for _, name := range []string{"omnetpp", "lbm", "mcf", "libquantum", "gcc", "cigar", "microseq", "microrand"} {
		if !seen[name] {
			t.Errorf("required benchmark %q missing", name)
		}
	}
}

func TestSuiteHardToStealFlags(t *testing.T) {
	want := map[string]bool{"mcf": true, "milc": true, "soplex": true, "libquantum": true}
	for _, spec := range Suite() {
		if want[spec.Name] && !spec.HardToStealFrom {
			t.Errorf("%s should be flagged hard-to-steal-from (Table II)", spec.Name)
		}
		if !want[spec.Name] && spec.HardToStealFrom {
			t.Errorf("%s unexpectedly flagged hard-to-steal-from", spec.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("lbm"); !ok {
		t.Error("lbm not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("bogus name found")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName on bogus name did not panic")
		}
	}()
	MustByName("nope")
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
}

func TestSuiteGeneratorsDeterministic(t *testing.T) {
	for _, spec := range Suite() {
		a, b := spec.New(7), spec.New(7)
		for i := 0; i < 2000; i++ {
			if a.Next() != b.Next() {
				t.Errorf("%s: same-seed generators diverged at op %d", spec.Name, i)
				break
			}
		}
	}
}
