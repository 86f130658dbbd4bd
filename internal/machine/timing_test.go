package machine

import (
	"math"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/cpu"
	"cachepirate/internal/mem"
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
	cp := cpu.DefaultParams()
	mlp := 3.0
	portBPC, dramBPC, dramLat := 29.96, 4.58, 180.25
	p := 64 / portBPC // one line on the port
	d := 64 / dramBPC // one line on DRAM
	cfg := Config{
		L3:     cache.Config{LineSize: 64},
		L3Port: mem.ServerConfig{BytesPerCycle: portBPC},
		DRAM:   mem.ServerConfig{BytesPerCycle: dramBPC, BaseLatency: dramLat},
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
