package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestServerConfigValidate(t *testing.T) {
	if err := (ServerConfig{Name: "x", BytesPerCycle: 0}).Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := (ServerConfig{Name: "x", BytesPerCycle: 4, BaseLatency: -1}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := NewServer(ServerConfig{Name: "x", BytesPerCycle: -2}); err == nil {
		t.Error("NewServer accepted bad config")
	}
}

func TestUnloadedLatency(t *testing.T) {
	s := MustNewServer(ServerConfig{BytesPerCycle: 4, BaseLatency: 100})
	done := s.Request(1000, 64)
	want := 1000.0 + 64.0/4.0 + 100.0
	if done != want {
		t.Errorf("unloaded completion = %g, want %g", done, want)
	}
}

func TestBackToBackRequestsQueue(t *testing.T) {
	s := MustNewServer(ServerConfig{BytesPerCycle: 4, BaseLatency: 0})
	// Two simultaneous 64B requests: the second waits for the first.
	d1 := s.Request(0, 64)
	d2 := s.Request(0, 64)
	if d1 != 16 || d2 != 32 {
		t.Errorf("completions = %g, %g; want 16, 32", d1, d2)
	}
	st := s.Stats()
	if st.QueueCycles != 16 {
		t.Errorf("queue cycles = %g, want 16", st.QueueCycles)
	}
}

func TestIdleGapDoesNotQueue(t *testing.T) {
	s := MustNewServer(ServerConfig{BytesPerCycle: 8, BaseLatency: 10})
	s.Request(0, 64)        // busy until cycle 8
	d := s.Request(100, 64) // arrives long after
	if d != 100+8+10 {
		t.Errorf("completion after idle gap = %g, want 118", d)
	}
	if q := s.Stats().QueueCycles; q != 0 {
		t.Errorf("idle arrival queued %g cycles", q)
	}
}

func TestDelayMatchesRequest(t *testing.T) {
	a := MustNewServer(ServerConfig{BytesPerCycle: 4, BaseLatency: 50})
	b := MustNewServer(ServerConfig{BytesPerCycle: 4, BaseLatency: 50})
	for i := 0; i < 10; i++ {
		now := float64(i * 3)
		if got, want := a.Delay(now, 64), b.Request(now, 64)-now; got != want {
			t.Fatalf("Delay mismatch at %d: %g vs %g", i, got, want)
		}
	}
}

func TestThroughputCapped(t *testing.T) {
	// Offered load 2x capacity: completions must advance at exactly
	// capacity rate.
	s := MustNewServer(ServerConfig{BytesPerCycle: 2, BaseLatency: 0})
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

func TestStatsAccumulateAndReset(t *testing.T) {
	s := MustNewServer(ServerConfig{BytesPerCycle: 4, BaseLatency: 0})
	s.Request(0, 64)
	s.Request(0, 128)
	st := s.Stats()
	if st.Bytes != 192 || st.Requests != 2 {
		t.Errorf("stats = %+v", st)
	}
	s.ResetStats()
	if s.Stats().Bytes != 0 {
		t.Error("ResetStats left bytes")
	}
	if s.NextFree() == 0 {
		t.Error("ResetStats should keep the schedule cursor")
	}
	s.Reset()
	if s.NextFree() != 0 {
		t.Error("Reset should clear the cursor")
	}
}

func TestUtilization(t *testing.T) {
	st := ServerStats{BusyCycles: 50}
	if got := st.Utilization(100); got != 0.5 {
		t.Errorf("utilization = %g, want 0.5", got)
	}
	if got := st.Utilization(0); got != 0 {
		t.Errorf("utilization at t=0 = %g, want 0", got)
	}
	st.BusyCycles = 200
	if got := st.Utilization(100); got != 1 {
		t.Errorf("utilization should clamp to 1, got %g", got)
	}
}

func TestGBPerSec(t *testing.T) {
	// 10.4 GB/s at 2.27 GHz is ~4.58 bytes/cycle.
	st := ServerStats{Bytes: 458}
	got := st.GBPerSec(100, 2.27e9)
	if math.Abs(got-10.3966) > 0.01 {
		t.Errorf("GBPerSec = %g, want ~10.4", got)
	}
	if st.GBPerSec(0, 2.27e9) != 0 {
		t.Error("zero elapsed should give 0")
	}
}

// Property: completion times are monotone in arrival order and never
// precede arrival + service + base latency.
func TestCompletionMonotoneProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		s := MustNewServer(ServerConfig{BytesPerCycle: 4, BaseLatency: 7})
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

// TestRequestBitEqualToDividingForm pins the cached service quotient:
// completion times and statistics must be Float64bits-identical to
// dividing size by capacity on every request, across runs of
// line-sized requests, multi-line requests and switches between them,
// at capacities whose quotients are inexact.
func TestRequestBitEqualToDividingForm(t *testing.T) {
	for _, bpc := range []float64{4.58, 29.96, 3, 8} {
		cfg := ServerConfig{BytesPerCycle: bpc, BaseLatency: 180.25}
		s := MustNewServer(cfg)
		var nextFree, queue, busy float64
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
			service := float64(size) / cfg.BytesPerCycle
			queue += start - now
			busy += service
			nextFree = start + service
			want := nextFree + cfg.BaseLatency

			if got := s.Request(now, size); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bpc %g request %d (size %d): done %v, dividing form %v", bpc, i, size, got, want)
			}
		}
		st := s.Stats()
		if math.Float64bits(st.QueueCycles) != math.Float64bits(queue) || math.Float64bits(st.BusyCycles) != math.Float64bits(busy) {
			t.Errorf("bpc %g: stats %+v, dividing form queue %v busy %v", bpc, st, queue, busy)
		}
	}
}
