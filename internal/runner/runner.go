// Package runner is the bounded worker-pool engine behind every
// parallel sweep in this repository. The paper's methodology is a grid
// of independent runs — one fresh machine per cache size (§III-B
// reference sweeps), one Target profile per benchmark — and each run
// builds its own machine.Machine and seeds its own workload, so the
// grid is embarrassingly parallel and results are bit-identical to the
// serial order as long as collection is index-ordered.
//
// runner.Map provides exactly that contract: tasks are dispatched in
// index order across a bounded number of workers, results land in the
// slot of their index, the first failure cancels tasks that have not
// started yet, and a panicking task becomes an error for that index
// rather than a crashed suite. Pool{Workers: 1} executes in the
// calling goroutine in strict index order with first-error early exit —
// byte-for-byte the behaviour of the serial loops this package
// replaced.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool configures a bounded worker pool. The zero value is valid and
// uses one worker per available CPU.
type Pool struct {
	// Workers is the maximum number of tasks in flight. Values <= 0
	// mean runtime.GOMAXPROCS(0). Workers == 1 runs tasks serially in
	// the calling goroutine, in index order, stopping at the first
	// error — exactly the pre-pool serial loops.
	Workers int
}

// EffectiveWorkers resolves the Workers field to the actual worker
// count used for n tasks.
func (p Pool) EffectiveWorkers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError is the error a panicking task is converted to: one bad
// machine run fails its own index instead of crashing the whole suite.
type PanicError struct {
	Index int
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: task %d panicked: %v", e.Index, e.Value)
}

// Map runs fn(ctx, i) for every i in [0, n) across the pool's workers
// and returns the n results in index order. On failure it returns the
// error of the lowest-indexed failed task; tasks not yet started when
// the first failure is observed are never started. The context passed
// to fn is cancelled on the first failure so long-running tasks can
// bail out early, and a cancelled parent ctx aborts the whole map.
//
// fn must be safe for concurrent invocation when Workers != 1: tasks
// may only share read-only state (a captured trace, a config value, a
// generator *factory* — never a live machine or generator).
func Map[T any](ctx context.Context, p Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := p.EffectiveWorkers(n)
	if workers == 1 {
		return mapSerial(ctx, n, fn)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	errs := make([]error, n)
	var next int64 // next task index to dispatch
	var wg sync.WaitGroup

	run := func(i int) (out T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(ctx, i)
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				out, err := run(i)
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				results[i] = out
			}
		}()
	}
	wg.Wait()

	// Lowest-indexed real failure wins; a task that merely observed the
	// pool's own cancellation (context.Canceled) must not mask the
	// failure that triggered it.
	firstAny := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if firstAny < 0 {
			firstAny = i
		}
		if !errors.Is(err, context.Canceled) {
			return nil, fmt.Errorf("runner: task %d: %w", i, err)
		}
	}
	if firstAny >= 0 {
		return nil, fmt.Errorf("runner: task %d: %w", firstAny, errs[firstAny])
	}
	if err := ctx.Err(); err != nil {
		// Parent cancellation with no task error of our own.
		return nil, err
	}
	return results, nil
}

// mapSerial is the Workers == 1 path: the calling goroutine runs tasks
// in index order and stops at the first error, so tasks after a
// failure are never started — identical to the serial loops the pool
// replaced (panics are still converted, serially as in parallel mode).
func mapSerial[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, err := func(i int) (out T, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
				}
			}()
			return fn(ctx, i)
		}(i)
		if err != nil {
			return nil, fmt.Errorf("runner: task %d: %w", i, err)
		}
		results[i] = out
	}
	return results, nil
}

// Run is Map without per-task results: it executes fn(ctx, i) for
// every i in [0, n) under the same ordering, cancellation and panic
// contract.
func Run(ctx context.Context, p Pool, n int, fn func(ctx context.Context, i int) error) error {
	_, err := Map(ctx, p, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}
