package runner

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// pipeUnit is the test payload: seq is stamped by the read step, val
// by the work step, so the consumer can verify both ordering and that
// the parallel step ran.
type pipeUnit struct {
	seq int
	val int
}

func runPipe(t *testing.T, nbufs, workers, units int, failRead, failWork int) ([]pipeUnit, error) {
	t.Helper()
	bufs := make([]*pipeUnit, nbufs)
	for i := range bufs {
		bufs[i] = &pipeUnit{}
	}
	next := 0
	read := func(b *pipeUnit) error {
		if next == failRead {
			return errors.New("read boom")
		}
		if next == units {
			return io.EOF
		}
		b.seq = next
		b.val = -1
		next++
		return nil
	}
	work := func(b *pipeUnit) error {
		// Scramble completion order so in-order reassembly is actually
		// exercised: even sequences finish late.
		if b.seq%2 == 0 {
			time.Sleep(time.Duration(b.seq%5) * time.Millisecond)
		}
		if b.seq == failWork {
			return fmt.Errorf("work boom at %d", b.seq)
		}
		b.val = b.seq * 10
		return nil
	}
	p := StartPipe(bufs, workers, read, work)
	defer p.Stop()
	var got []pipeUnit
	for {
		b, err := p.Next()
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			// The error must be sticky.
			if _, err2 := p.Next(); err2 != err {
				t.Fatalf("error not sticky: first %v then %v", err, err2)
			}
			return got, err
		}
		got = append(got, *b)
	}
}

func TestPipeOrdered(t *testing.T) {
	for _, tc := range []struct{ nbufs, workers, units int }{
		{1, 1, 17},
		{2, 1, 40},
		{4, 2, 100},
		{8, 4, 100},
		{8, 16, 100}, // workers clamp to pool size
		{4, 4, 0},    // empty stream
		{4, 4, 3},    // fewer units than buffers
	} {
		got, err := runPipe(t, tc.nbufs, tc.workers, tc.units, -1, -1)
		if err != nil {
			t.Fatalf("bufs=%d workers=%d: %v", tc.nbufs, tc.workers, err)
		}
		if len(got) != tc.units {
			t.Fatalf("bufs=%d workers=%d: got %d units, want %d", tc.nbufs, tc.workers, len(got), tc.units)
		}
		for i, u := range got {
			if u.seq != i || u.val != i*10 {
				t.Fatalf("bufs=%d workers=%d: unit %d = %+v, want {%d %d}", tc.nbufs, tc.workers, i, u, i, i*10)
			}
		}
	}
}

func TestPipeReadError(t *testing.T) {
	got, err := runPipe(t, 4, 2, 100, 20, -1)
	if err == nil || err.Error() != "read boom" {
		t.Fatalf("want read boom, got %v", err)
	}
	if len(got) != 20 {
		t.Fatalf("got %d units before read error, want 20", len(got))
	}
}

func TestPipeWorkError(t *testing.T) {
	got, err := runPipe(t, 4, 4, 100, -1, 10)
	if err == nil || err.Error() != "work boom at 10" {
		t.Fatalf("want work boom at 10, got %v", err)
	}
	// Every unit before the failed one must have been delivered — the
	// error surfaces at its stream position, exactly like a sync
	// decoder would report it.
	if len(got) != 10 {
		t.Fatalf("got %d units before work error, want 10", len(got))
	}
	for i, u := range got {
		if u.seq != i {
			t.Fatalf("unit %d out of order: %+v", i, u)
		}
	}
}

func TestPipeStopMidStreamGauges(t *testing.T) {
	bufs := make([]*pipeUnit, 8)
	for i := range bufs {
		bufs[i] = &pipeUnit{}
	}
	read := func(b *pipeUnit) error { return nil } // endless stream
	work := func(b *pipeUnit) error { time.Sleep(time.Millisecond); return nil }
	p := StartPipe(bufs, 2, read, work)
	for i := 0; i < 3; i++ {
		if _, err := p.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	p.Stop()
	if u := Util(); u.DecodeWorkers != 0 || u.DecodeQueued != 0 || u.DecodeInFlight != 0 {
		t.Fatalf("gauges not quiescent after Stop: %+v", u)
	}
}
