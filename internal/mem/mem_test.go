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
