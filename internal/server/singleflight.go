package server

import (
	"context"
	"sync"
	"sync/atomic"
)

// flightGroup deduplicates identical in-flight jobs: the first request
// for a key becomes the leader and runs fn once; requests arriving
// while it runs wait for that one result instead of queueing duplicate
// replays.
//
// The flight runs under its own context, detached from any single
// request: each waiter holds a reference, a waiter whose request
// context dies drops its reference, and the flight context is
// cancelled only when the last interested waiter is gone. One
// impatient client therefore cannot kill a computation nine other
// clients are still waiting for — but a job every client has
// abandoned is cancelled all the way into the replay loop.
type flightGroup struct {
	mu      sync.Mutex
	m       map[string]*flight
	deduped atomic.Uint64 // waits that piggybacked on an existing flight
}

type flight struct {
	waiters int
	cancel  context.CancelFunc
	done    chan struct{}
	val     []byte
	err     error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// Do returns the result of fn for key, running fn exactly once per
// flight however many callers arrive while it is in flight. shared
// reports whether this call piggybacked on an existing flight. If ctx
// ends first, Do returns ctx's error immediately; the flight keeps
// running for the remaining waiters (and is cancelled once there are
// none).
func (g *flightGroup) Do(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) (val []byte, err error, shared bool) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		f.waiters++
		g.mu.Unlock()
		g.deduped.Add(1)
		v, e := g.wait(ctx, f)
		return v, e, true
	}
	// The flight detaches from the first caller's ctx on purpose: late
	// joiners must outlive it, and wait() handles per-caller
	// cancellation while the flight is cancelled only when its last
	// waiter leaves.
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{waiters: 1, cancel: cancel, done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	go func() {
		v, e := fn(fctx)
		g.mu.Lock()
		f.val, f.err = v, e
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
		cancel()
	}()
	v, e := g.wait(ctx, f)
	return v, e, false
}

// wait blocks until the flight completes or ctx ends, dropping this
// waiter's reference in the latter case.
func (g *flightGroup) wait(ctx context.Context, f *flight) ([]byte, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			f.cancel()
		}
		g.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Deduped returns how many calls were served by piggybacking on an
// already-running flight.
func (g *flightGroup) Deduped() uint64 { return g.deduped.Load() }
