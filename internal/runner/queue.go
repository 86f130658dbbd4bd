package runner

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrQueueFull is returned by Queue.Do when the backlog is at capacity:
// the caller should shed load (the curve server turns it into a 429
// with Retry-After) rather than block behind an unbounded line.
var ErrQueueFull = errors.New("runner: queue full")

// ErrQueueClosed is returned by Queue.Do after Close.
var ErrQueueClosed = errors.New("runner: queue closed")

// Queue is the long-running sibling of Map: a bounded job queue with a
// fixed worker pool, built for servers that accept work continuously
// instead of in batches. Admission is strict — when backlog jobs are
// already waiting, Do fails immediately with ErrQueueFull so the
// caller can apply backpressure — and cancellation is first-class: a
// job whose context expires while it waits is never started, and a
// running job receives the submitter's context so replay loops can
// bail out mid-flight (machine.RunInstructionsCtx).
type Queue struct {
	jobs chan *queueJob

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	queued  atomic.Int64 // jobs admitted but not finished
	running atomic.Int64 // jobs currently executing
}

type queueJob struct {
	ctx  context.Context
	fn   func(context.Context) error
	done chan error
}

// NewQueue starts a queue with the given worker count and backlog.
// workers <= 0 means one per CPU; backlog <= 0 means 4x the workers.
func NewQueue(workers, backlog int) *Queue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if backlog <= 0 {
		backlog = 4 * workers
	}
	q := &Queue{jobs: make(chan *queueJob, backlog)}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.jobs {
		// A job whose submitter gave up while it waited is skipped, not
		// run: the result would be thrown away and the slot is better
		// spent on a live request.
		if err := j.ctx.Err(); err != nil {
			q.queued.Add(-1)
			j.done <- err
			continue
		}
		q.running.Add(1)
		err := runJob(j)
		q.running.Add(-1)
		q.queued.Add(-1)
		j.done <- err
	}
}

// runJob executes one job with the pool's panic contract: a panicking
// job fails with a PanicError instead of killing the worker.
func runJob(j *queueJob) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return j.fn(j.ctx)
}

// Do submits fn and waits for it to finish, returning its error. It
// fails fast with ErrQueueFull when the backlog has no room and with
// ErrQueueClosed after Close. If ctx expires while the job waits in
// the backlog the job is skipped and ctx's error returned; a running
// job observes the same ctx and is expected to return promptly once
// it is cancelled.
func (q *Queue) Do(ctx context.Context, fn func(context.Context) error) error {
	j := &queueJob{ctx: ctx, fn: fn, done: make(chan error, 1)}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrQueueClosed
	}
	select {
	case q.jobs <- j:
		q.queued.Add(1)
		q.mu.Unlock()
	default:
		q.mu.Unlock()
		return ErrQueueFull
	}
	select {
	case err := <-j.done:
		return err
	case <-ctx.Done():
		// Return without waiting for a worker to reach the abandoned
		// job; the worker skips it when it does (done is buffered, so
		// its send never blocks).
		return ctx.Err()
	}
}

// Depth returns how many admitted jobs have not yet finished (waiting
// plus running) — the queue-pressure signal /statsz reports.
func (q *Queue) Depth() int { return int(q.queued.Load()) }

// Running returns how many jobs are executing right now.
func (q *Queue) Running() int { return int(q.running.Load()) }

// Close stops admission and waits for the workers to drain the
// backlog. Jobs already admitted still run (their Do calls return as
// usual); new Do calls fail with ErrQueueClosed.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	close(q.jobs)
	q.mu.Unlock()
	q.wg.Wait()
}
