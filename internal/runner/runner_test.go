package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdering checks index-ordered collection under adversarial
// task durations: early indices finish last, yet results land in index
// order.
func TestMapOrdering(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := Map(context.Background(), Pool{Workers: workers}, n,
			func(_ context.Context, i int) (int, error) {
				// Low indices sleep longest, so completion order is
				// roughly the reverse of dispatch order.
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
				return i * i, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapFirstErrorCancellation checks that a failing task cancels the
// pool: tasks that have not started when the failure is observed are
// never started, and the reported error is the failure, not a
// cancellation artifact.
func TestMapFirstErrorCancellation(t *testing.T) {
	const n = 1000
	const workers = 4
	boom := errors.New("boom")
	var started int64
	_, err := Map(context.Background(), Pool{Workers: workers}, n,
		func(ctx context.Context, i int) (int, error) {
			atomic.AddInt64(&started, 1)
			if i == 0 {
				return 0, boom
			}
			// Everyone else blocks until the pool cancels them.
			<-ctx.Done()
			return 0, ctx.Err()
		})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped %v", err, boom)
	}
	if s := atomic.LoadInt64(&started); s > workers {
		t.Errorf("%d tasks started after first error, want <= %d (pool width)", s, workers)
	}
}

// TestMapSerialFirstError checks the Workers == 1 contract: strict
// index order, and nothing after the failing index runs.
func TestMapSerialFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	_, err := Map(context.Background(), Pool{Workers: 1}, 10,
		func(_ context.Context, i int) (int, error) {
			ran = append(ran, i)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped %v", err, boom)
	}
	want := []int{0, 1, 2, 3}
	if len(ran) != len(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("ran %v, want %v", ran, want)
		}
	}
}

// TestMapPanicBecomesError checks that a panicking task is converted
// into a PanicError for its index instead of crashing the process.
func TestMapPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), Pool{Workers: workers}, 8,
			func(_ context.Context, i int) (int, error) {
				if i == 5 {
					panic("machine exploded")
				}
				return i, nil
			})
		if err == nil {
			t.Fatalf("workers=%d: want error from panicking task", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v is not a PanicError", workers, err)
		}
		if pe.Index != 5 {
			t.Errorf("workers=%d: panic index = %d, want 5", workers, pe.Index)
		}
		if pe.Value != "machine exploded" {
			t.Errorf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic stack not captured", workers)
		}
	}
}

// TestMapParentCancellation checks that a cancelled parent context
// aborts the map with the context's error.
func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := Map(ctx, Pool{Workers: workers}, 8,
			func(_ context.Context, i int) (int, error) { return i, nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error = %v, want context.Canceled", workers, err)
		}
	}
}

// TestMapEmpty checks the degenerate sizes.
func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), Pool{}, 0,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || out != nil {
		t.Fatalf("n=0: out=%v err=%v, want nil/nil", out, err)
	}
	out, err = Map(context.Background(), Pool{Workers: 16}, 1,
		func(_ context.Context, i int) (int, error) { return 7, nil })
	if err != nil || len(out) != 1 || out[0] != 7 {
		t.Fatalf("n=1: out=%v err=%v", out, err)
	}
}

// TestRun checks the result-free wrapper.
func TestRun(t *testing.T) {
	var hits int64
	if err := Run(context.Background(), Pool{Workers: 4}, 20,
		func(_ context.Context, i int) error {
			atomic.AddInt64(&hits, 1)
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if hits != 20 {
		t.Fatalf("hits = %d, want 20", hits)
	}
	boom := errors.New("boom")
	err := Run(context.Background(), Pool{Workers: 4}, 20,
		func(_ context.Context, i int) error {
			if i == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped %v", err, boom)
	}
}

// TestEffectiveWorkers pins the resolution rules the -j flags rely on.
func TestEffectiveWorkers(t *testing.T) {
	cases := []struct {
		workers, n, want int
	}{
		{1, 100, 1},
		{8, 4, 4},
		{8, 100, 8},
		{-3, 1, 1},
	}
	for _, c := range cases {
		if got := (Pool{Workers: c.workers}).EffectiveWorkers(c.n); got != c.want {
			t.Errorf("EffectiveWorkers(workers=%d, n=%d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
	if got := (Pool{}).EffectiveWorkers(1 << 30); got < 1 {
		t.Errorf("zero pool resolved to %d workers", got)
	}
}

// TestMapLowestIndexedError checks the deterministic error choice when
// several tasks fail: the lowest-indexed real failure is reported.
func TestMapLowestIndexedError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	var barrier sync.WaitGroup
	barrier.Add(2)
	_, err := Map(context.Background(), Pool{Workers: 2}, 2,
		func(_ context.Context, i int) (int, error) {
			// Both tasks fail, synchronised so both errors are always
			// recorded regardless of scheduling.
			barrier.Done()
			barrier.Wait()
			if i == 0 {
				return 0, errA
			}
			return 0, errB
		})
	if !errors.Is(err, errA) {
		t.Fatalf("error = %v, want the lowest-indexed failure %v", err, errA)
	}
	if fmt.Sprintf("%v", err) == "" {
		t.Fatal("empty error text")
	}
}
