package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestQueueRunsJobs(t *testing.T) {
	q := NewQueue(2, 16)
	defer q.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := q.Do(context.Background(), func(context.Context) error {
				ran.Add(1)
				return nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d jobs, want 16", got)
	}
	if got := q.Depth(); got != 0 {
		t.Fatalf("Depth() = %d after drain, want 0", got)
	}
}

func TestQueueReturnsJobError(t *testing.T) {
	q := NewQueue(1, 1)
	defer q.Close()
	boom := errors.New("boom")
	if err := q.Do(context.Background(), func(context.Context) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want %v", err, boom)
	}
}

func TestQueueBackpressure(t *testing.T) {
	q := NewQueue(1, 1)
	defer q.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = q.Do(context.Background(), func(context.Context) error {
			close(started)
			<-block
			return nil
		})
	}()
	<-started

	// Worker busy: one more job fits in the backlog...
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = q.Do(context.Background(), func(context.Context) error { return nil })
	}()
	// ...wait until it is admitted (Depth counts it) so the next Do
	// deterministically sees a full backlog.
	for q.Depth() < 2 {
		runtime.Gosched()
	}

	if err := q.Do(context.Background(), func(context.Context) error { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Do on full queue = %v, want ErrQueueFull", err)
	}
	close(block)
	wg.Wait()
}

func TestQueueSkipsCancelledWaiters(t *testing.T) {
	q := NewQueue(1, 4)
	defer q.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = q.Do(context.Background(), func(context.Context) error {
			close(started)
			<-block
			return nil
		})
	}()
	<-started

	// Enqueue behind the blocked worker with an already-cancelled
	// context: Do must return the ctx error immediately (without
	// waiting for the worker), and the job must never run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	if err := q.Do(ctx, func(context.Context) error { ran.Store(true); return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do with cancelled ctx = %v, want context.Canceled", err)
	}
	close(block)
	wg.Wait()
	q.Close() // drain: the abandoned job is dequeued and skipped
	if ran.Load() {
		t.Fatal("cancelled job ran")
	}
}

func TestQueuePassesContextToJob(t *testing.T) {
	q := NewQueue(1, 1)
	defer q.Close()
	ctx, cancel := context.WithCancel(context.Background())
	err := q.Do(ctx, func(jctx context.Context) error {
		cancel() // simulate the client vanishing mid-job
		return jctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("job saw ctx err %v, want context.Canceled", err)
	}
}

func TestQueuePanicBecomesError(t *testing.T) {
	q := NewQueue(1, 1)
	defer q.Close()
	err := q.Do(context.Background(), func(context.Context) error { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Do = %v, want *PanicError", err)
	}
	// The worker must survive the panic.
	if err := q.Do(context.Background(), func(context.Context) error { return nil }); err != nil {
		t.Fatalf("Do after panic: %v", err)
	}
}

func TestQueueClose(t *testing.T) {
	q := NewQueue(2, 4)
	q.Close()
	if err := q.Do(context.Background(), func(context.Context) error { return nil }); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Do after Close = %v, want ErrQueueClosed", err)
	}
	q.Close() // idempotent
}
