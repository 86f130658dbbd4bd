package machine

import (
	"math"
	"testing"
	"testing/quick"

	"cachepirate/internal/cache"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// Bits of a cache.PackedOutcome word, as its doc comment lays them out.
const (
	wordPrefetchHit cache.PackedOutcome = 1 << 2  // PrefetchHit
	wordPrefetch    cache.PackedOutcome = 1 << 3  // one prefetch fill
	wordWriteLine   cache.PackedOutcome = 1 << 33 // one DRAM writeback line
)

// TestChargeHandDerived holds Shared.Charge and Shared.WriteBack to
// expectations written out by hand from the model (DESIGN.md §8): one
// row per kind of access past L2, on servers whose bytes/cycle make
// every line service time inexact, so each expected value is the same
// float64 expression, in the same order, that the recurrence must
// evaluate. Both replay paths call this one function, so the engine
// equivalence matrix cannot catch a change in it; this table can.
func TestChargeHandDerived(t *testing.T) {
	cp := DefaultParams()
	mlp := 3.0
	portBPC, dramBPC, dramLat := 29.96, 4.58, 180.25
	p := 64 / portBPC // one line on the port
	d := 64 / dramBPC // one line on DRAM
	cfg := Config{
		L3:     cache.Config{LineSize: 64},
		L3Port: ServerConfig{BytesPerCycle: portBPC},
		DRAM:   ServerConfig{BytesPerCycle: dramBPC, BaseLatency: dramLat},
	}
	l3 := cache.PackedOutcome(cache.LevelL3)
	memw := cache.PackedOutcome(cache.LevelMem)

	type row struct {
		name    string
		busy    func(s *Shared) // requests before the one under test
		now     float64
		out     cache.PackedOutcome
		wbBytes int64 // > 0: a coherence WriteBack of this many bytes instead of a Charge

		stall, portFree, dramFree float64
		traffic                   Traffic
	}
	var rows []row
	{
		now := 100.0
		rows = append(rows, row{name: "plain L3 hit, port idle", now: now, out: l3,
			stall: cp.L1Cost + cp.L3Cost/mlp, portFree: now + p})
	}
	{
		now := 1.0
		queue := p + p - now
		rows = append(rows, row{name: "L3 hit behind a busy port",
			busy: func(s *Shared) { s.Port.Request(0, 64); s.Port.Request(0, 64) },
			now:  now, out: l3,
			stall: cp.L1Cost + (cp.L3Cost+queue)/mlp, portFree: p + p + p})
	}
	{
		now := 10.0
		done := d + d + dramLat // queued behind one line, then served
		rows = append(rows, row{name: "DRAM read served by memory",
			busy: func(s *Shared) { s.DRAM.Request(0, 64) },
			now:  now, out: memw,
			stall: cp.L1Cost + (cp.L3Cost+(done-now))/mlp, portFree: now + p, dramFree: d + d,
			traffic: Traffic{Read: 64}})
	}
	{
		now := 20.0
		backlog := d + d - now
		rows = append(rows, row{name: "prefetch-hit L3 access with a DRAM backlog",
			busy: func(s *Shared) { s.DRAM.Request(0, 64); s.DRAM.Request(0, 64) },
			now:  now, out: l3 | wordPrefetchHit | wordPrefetch, // the hit, and one prefetch fill
			stall: cp.L1Cost + (cp.PrefetchHitCost+backlog)/mlp, portFree: now + 128/portBPC, dramFree: d + d + d,
			traffic: Traffic{Read: 64}})
	}
	{
		now := 5.0
		rows = append(rows, row{name: "writeback only",
			busy: func(s *Shared) { s.DRAM.Request(0, 64) },
			now:  now, out: cache.PackedL2Hit | wordWriteLine,
			stall: cp.L1Cost + cp.L2Cost/mlp, dramFree: d + d,
			traffic: Traffic{Write: 64}})
	}
	{
		now := 7.0
		read := now + 192/dramBPC
		rows = append(rows, row{name: "multi-line read and multi-line writeback",
			now: now, out: memw | 2*wordPrefetch | 3*wordWriteLine,
			stall:    cp.L1Cost + (cp.L3Cost+(read+dramLat-now))/mlp,
			portFree: now + 192/portBPC, dramFree: read + 192/dramBPC,
			traffic: Traffic{Read: 192, Write: 192}})
	}
	{
		now := 3.0
		rows = append(rows, row{name: "coherence writeback",
			now: now, wbBytes: 128, dramFree: now + 128/dramBPC,
			traffic: Traffic{Write: 128}})
	}

	costs := NewCosts(cp, mlp)
	for _, r := range rows {
		s := NewShared(cfg)
		if r.busy != nil {
			r.busy(&s)
		}
		tr := Traffic{Read: 1000, Write: 2000} // bytes are added, not stored
		var stall float64
		if r.wbBytes > 0 {
			s.WriteBack(r.now, r.wbBytes, &tr)
		} else {
			stall = s.Charge(r.out, r.now, &costs, &tr)
		}
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"stall", stall, r.stall},
			{"port next-free", s.Port.Backlog(0), r.portFree},
			{"DRAM next-free", s.DRAM.Backlog(0), r.dramFree},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Errorf("%s: %s %v, want %v", r.name, c.what, c.got, c.want)
			}
		}
		if want := (Traffic{Read: 1000 + r.traffic.Read, Write: 2000 + r.traffic.Write}); tr != want {
			t.Errorf("%s: traffic %+v, want %+v", r.name, tr, want)
		}
	}
}

// TestRetirementHandDerived is TestChargeHandDerived's counterpart for
// the retirement half of the recurrence, the part stepCore and the
// fused record loops both take from Costs: full StepChunk chunks, the
// rest of an op's instructions, and an access served by L1 or L2. Every
// expected clock is written out by hand from the model at an inexact
// BaseCPI and MLP, so a wrong Costs constant fails here even though
// both engines would agree on it.
func TestRetirementHandDerived(t *testing.T) {
	cfg := smallConfig(1)
	cpi, l1c, l2c, mlp := 0.4, 0.5, 7.0, 3.0
	cfg.CPU = Params{BaseCPI: cpi, L1Cost: l1c, L2Cost: l2c, L3Cost: 20, PrefetchHitCost: 8, FreqHz: 2e9}
	// The L1 has 8 sets of 2 ways and the L2 16 sets of 4: x, x+512
	// and x+1024 share an L1 set, so the third evicts x from the L1,
	// while the L2 keeps all three.
	const x = 1 << 16
	tr := &trace.Trace{Records: []trace.Record{
		{Addr: x}, {Addr: x + 512}, {Addr: x + 1024}, // warm-up: three misses
		{NInstr: 2*StepChunk + 5, Addr: x + 1024}, // two full chunks, then an L1 hit
		{NInstr: 0, Addr: x},                      // an L2 hit
	}}
	m := MustNew(cfg)
	m.MustAttach(0, workload.NewFromBlocks("hand", trace.NewReplayer(tr, false), mlp, 0))
	m.RunSteps(3)
	c := &m.cores[0]
	cycles, instrs, accs := c.cycles, c.instrs, c.memAccs
	if instrs != 3 || accs != 3 {
		t.Fatalf("after warm-up: %d instructions, %d accesses; want 3, 3", instrs, accs)
	}

	chunk := float64(StepChunk * cpi)
	steps := []struct {
		name           string
		cycles         float64
		instrs, access uint64
	}{
		{"first chunk", cycles + chunk, 64, 0},
		{"second chunk", cycles + chunk + chunk, 128, 0},
		{"rest and L1 hit", cycles + chunk + chunk + float64(5*cpi) + (cpi + l1c), 134, 1},
		{"L2 hit", cycles + chunk + chunk + float64(5*cpi) + (cpi + l1c) + (cpi + (l1c + l2c/mlp)), 135, 2},
	}
	for _, st := range steps {
		if !m.Step() {
			t.Fatalf("%s: machine did not step", st.name)
		}
		if math.Float64bits(c.cycles) != math.Float64bits(st.cycles) {
			t.Errorf("%s: cycles %v, want %v", st.name, c.cycles, st.cycles)
		}
		if c.instrs != instrs+st.instrs || c.memAccs != accs+st.access {
			t.Errorf("%s: %d instructions, %d accesses; want %d, %d",
				st.name, c.instrs-instrs, c.memAccs-accs, st.instrs, st.access)
		}
	}
}

func testParams() Params {
	return Params{BaseCPI: 0.5, L1Cost: 1, L2Cost: 8, L3Cost: 20, PrefetchHitCost: 6, FreqHz: 2e9}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{BaseCPI: 0, L1Cost: 1, FreqHz: 1},
		{BaseCPI: 1, L1Cost: -1, FreqHz: 1},
		{BaseCPI: 1, L3Cost: -5, FreqHz: 1},
		{BaseCPI: 1, FreqHz: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	cfg := smallConfig(1)
	cfg.CPU = Params{}
	if _, err := New(cfg); err == nil {
		t.Error("New accepted zero core params")
	}
}

func TestAccessCostPerLevel(t *testing.T) {
	p := testParams()
	cases := []struct {
		name     string
		served   cache.Level
		prefetch bool
		mem      float64
		l3q      float64
		mlp      float64
		want     float64
	}{
		{"l1", cache.LevelL1, false, 0, 0, 1, 1},
		{"l2", cache.LevelL2, false, 0, 0, 1, 9},
		{"l3", cache.LevelL3, false, 0, 0, 1, 21},
		{"mem", cache.LevelMem, false, 200, 0, 1, 221},
		{"mem-mlp4", cache.LevelMem, false, 200, 0, 4, 1 + 220.0/4},
		{"l3-queued", cache.LevelL3, false, 0, 10, 1, 31},
		{"prefetch-hit", cache.LevelL3, true, 0, 0, 1, 7},
		{"prefetch-hit-dram-backlog", cache.LevelL3, true, 12, 0, 1, 19},
		{"mlp-below-1", cache.LevelL2, false, 0, 0, 0.25, 9},
	}
	for _, c := range cases {
		if got := AccessCost(p, c.served, c.prefetch, c.mem, c.l3q, c.mlp); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: cost = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestAccessCostMLPReducesOnlyBeyondL1(t *testing.T) {
	p := testParams()
	l1a := AccessCost(p, cache.LevelL1, false, 0, 0, 1)
	l1b := AccessCost(p, cache.LevelL1, false, 0, 0, 8)
	if l1a != l1b {
		t.Error("MLP should not affect L1 hits")
	}
	m1 := AccessCost(p, cache.LevelMem, false, 200, 0, 1)
	m8 := AccessCost(p, cache.LevelMem, false, 200, 0, 8)
	if m8 >= m1 {
		t.Error("higher MLP should reduce memory stall cost")
	}
}

func TestServerConfigValidate(t *testing.T) {
	if err := (ServerConfig{Name: "x", BytesPerCycle: 0}).Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := (ServerConfig{Name: "x", BytesPerCycle: 4, BaseLatency: -1}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestUnloadedLatency(t *testing.T) {
	s := ServerConfig{BytesPerCycle: 4, BaseLatency: 100}.Server(64)
	done := s.Request(1000, 64)
	want := 1000.0 + 64.0/4.0 + 100.0
	if done != want {
		t.Errorf("unloaded completion = %g, want %g", done, want)
	}
}

func TestBackToBackRequestsQueue(t *testing.T) {
	s := ServerConfig{BytesPerCycle: 4, BaseLatency: 0}.Server(64)
	// Two simultaneous 64B requests: the second waits for the first.
	d1 := s.Request(0, 64)
	if b := s.Backlog(0); b != 16 {
		t.Errorf("backlog behind the first request = %g, want 16", b)
	}
	d2 := s.Request(0, 64)
	if d1 != 16 || d2 != 32 {
		t.Errorf("completions = %g, %g; want 16, 32", d1, d2)
	}
}

func TestIdleGapDoesNotQueue(t *testing.T) {
	s := ServerConfig{BytesPerCycle: 8, BaseLatency: 10}.Server(64)
	s.Request(0, 64) // busy until cycle 8
	if b := s.Backlog(100); b != 0 {
		t.Errorf("backlog after idle gap = %g, want 0", b)
	}
	d := s.Request(100, 64) // arrives long after
	if d != 100+8+10 {
		t.Errorf("completion after idle gap = %g, want 118", d)
	}
}

func TestThroughputCapped(t *testing.T) {
	// Offered load 2x capacity: completions must advance at exactly
	// capacity rate.
	s := ServerConfig{BytesPerCycle: 2, BaseLatency: 0}.Server(64)
	var done float64
	const n = 1000
	for i := 0; i < n; i++ {
		done = s.Request(float64(i*16), 64) // 4 B/cycle offered vs 2 capacity
	}
	elapsed := done
	achieved := float64(n*64) / elapsed
	if math.Abs(achieved-2) > 0.01 {
		t.Errorf("achieved %g B/cycle under overload, want ~2", achieved)
	}
}

// Property: completion times are monotone in arrival order and never
// precede arrival + service + base latency.
func TestCompletionMonotoneProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		s := ServerConfig{BytesPerCycle: 4, BaseLatency: 7}.Server(64)
		now, prevDone := 0.0, 0.0
		for _, g := range gaps {
			now += float64(g)
			done := s.Request(now, 64)
			if done < prevDone {
				return false
			}
			if done < now+16+7 {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRequestBitEqualToDividingForm pins the stored line service time:
// completion times must be Float64bits-identical to
// dividing size by capacity on every request, across runs of
// line-sized requests, multi-line requests and switches between them,
// at capacities whose quotients are inexact.
func TestRequestBitEqualToDividingForm(t *testing.T) {
	for _, bpc := range []float64{4.58, 29.96, 3, 8} {
		cfg := ServerConfig{BytesPerCycle: bpc, BaseLatency: 180.25}
		s := cfg.Server(64)
		var nextFree float64
		now := 0.0
		for i := 0; i < 5000; i++ {
			now += float64(i%7) * 1.375
			size := int64(64)
			switch i % 11 {
			case 3:
				size = 128
			case 7, 8:
				size = 64 * int64(1+i%5)
			}
			start := now
			if nextFree > start {
				start = nextFree
			}
			nextFree = start + float64(size)/cfg.BytesPerCycle
			want := nextFree + cfg.BaseLatency

			if got := s.Request(now, size); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bpc %g request %d (size %d): done %v, dividing form %v", bpc, i, size, got, want)
			}
		}
	}
}
