package runner

import (
	"sync"
	"sync/atomic"
)

// Pipe is the ordered parallel decode pipeline behind
// trace.ParallelReader: one sequential producer step (read) scans
// units off a stream into pool buffers, a bounded worker pool runs the
// expensive per-unit step (work) concurrently, and the consumer
// receives the finished buffers strictly in read order, with in-order
// sticky errors — so a Pipe-backed reader is observably identical to a
// synchronous one, just faster when work dominates read.
//
// In-order delivery uses a slot ring instead of a reorder heap: result
// slot seq%N (N = pool size) with capacity 1. At most N buffers exist,
// every in-flight result holds one, and the consumer drains in
// sequence order — so two live results can never share a slot (seq and
// seq+N live together would need N+1 buffers) and slot sends never
// block. That makes the pipeline deadlock-free by counting, not by
// timeout.
type Pipe[B any] struct {
	bufs  []B
	free  chan B
	work  chan pipeItem[B]
	slots []chan pipeResult[B]
	stop  chan struct{}
	done  chan struct{} // producer exit
	wg    sync.WaitGroup

	// queued mirrors the global decodeQueued gauge for this Pipe so
	// Stop can retire whatever the teardown drain left behind.
	queued atomic.Int64

	seq      uint64 // consumer: next sequence to deliver
	prev     B
	havePrev bool
	finished error
}

type pipeItem[B any] struct {
	buf B
	seq uint64
}

type pipeResult[B any] struct {
	buf B
	err error
}

// StartPipe launches the pipeline over the buffer pool. read is called
// serially (never concurrently with itself) to scan the next unit into
// a buffer; it returns io.EOF at end of stream and any other error
// aborts the pipeline at that position. work is called concurrently
// across workers on different buffers to finish each unit; its error
// is delivered at the unit's position. workers is clamped to [1,
// len(bufs)]: more workers than buffers could never all be busy.
func StartPipe[B any](bufs []B, workers int, read func(B) error, work func(B) error) *Pipe[B] {
	if len(bufs) < 1 {
		panic("runner: StartPipe needs at least one buffer")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(bufs) {
		workers = len(bufs)
	}
	p := &Pipe[B]{
		bufs:  bufs,
		free:  make(chan B, len(bufs)),
		work:  make(chan pipeItem[B], len(bufs)),
		slots: make([]chan pipeResult[B], len(bufs)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := range p.slots {
		p.slots[i] = make(chan pipeResult[B], 1)
	}
	for _, b := range bufs {
		p.free <- b
	}
	decodeWorkers.Add(int64(workers))
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(work)
	}
	go p.produce(read)
	return p
}

// produce is the sequential half: pull a free buffer, scan the next
// unit into it, hand it to the worker pool. The terminal result (EOF
// or read error) bypasses the pool and lands directly in its slot so
// the consumer sees it exactly after the last good unit.
func (p *Pipe[B]) produce(read func(B) error) {
	defer close(p.done)
	defer close(p.work) // workers drain and exit after the producer
	n := uint64(len(p.slots))
	for seq := uint64(0); ; seq++ {
		var buf B
		select {
		case <-p.stop:
			return
		case buf = <-p.free:
		}
		if err := read(buf); err != nil {
			select {
			case p.slots[seq%n] <- pipeResult[B]{buf: buf, err: err}:
			case <-p.stop:
			}
			return
		}
		decodeQueued.Add(1)
		p.queued.Add(1)
		// Capacity == pool size and at most pool-size buffers are in
		// flight, so this send never blocks.
		p.work <- pipeItem[B]{buf: buf, seq: seq}
	}
}

func (p *Pipe[B]) worker(work func(B) error) {
	defer p.wg.Done()
	defer decodeWorkers.Add(-1)
	n := uint64(len(p.slots))
	for {
		select {
		case <-p.stop:
			// Drain so close(p.work) lets the other workers exit too;
			// Stop reconciles the queued gauge afterwards.
			for range p.work { //nolint:revive // intentional empty drain
			}
			return
		case item, ok := <-p.work:
			if !ok {
				return
			}
			decodeQueued.Add(-1)
			p.queued.Add(-1)
			decodeInFlight.Add(1)
			err := work(item.buf)
			decodeInFlight.Add(-1)
			select {
			case p.slots[item.seq%n] <- pipeResult[B]{buf: item.buf, err: err}:
			case <-p.stop:
				return
			}
		}
	}
}

// Next returns the next finished buffer in read order, recycling the
// previously returned one into the pool. At end of stream it returns
// (zero, io.EOF); any read or work error is returned at its stream
// position and is sticky.
func (p *Pipe[B]) Next() (B, error) {
	var zero B
	if p.finished != nil {
		return zero, p.finished
	}
	if p.havePrev {
		p.free <- p.prev
		p.havePrev = false
	}
	res := <-p.slots[p.seq%uint64(len(p.slots))]
	p.seq++
	if res.err != nil {
		p.finished = res.err
		return zero, res.err
	}
	p.prev = res.buf
	p.havePrev = true
	return res.buf, nil
}

// Stop tears the pipeline down: the producer and every worker are
// joined before it returns, so all pool buffers are safe to reuse and
// the queued gauge's residual (units scanned but never worked) can be
// retired.
func (p *Pipe[B]) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
	p.wg.Wait()
	decodeQueued.Add(-p.queued.Swap(0))
}
