package trace

import (
	"bufio"
	"errors"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// readerBufBytes sizes the bufio window. It is chosen so a
// default-framed stream (DefaultFrameRecords records at the
// worst-case maxRecordBytes each) always fits, letting frameDecoder
// checksum and decode straight out of the buffered bytes instead of
// copying each payload.
const readerBufBytes = 1 << 19

// Reader streams a trace from a seekable byte stream frame by frame
// in O(block) memory: the out-of-core implementation of BlockSource.
// With GOMAXPROCS > 1, a pass decodes up to three frames ahead on one
// background goroutine (see decodeAhead). The Mattson and SHARDS
// passes consume a frame about as fast as it decodes, and a decoder
// only one frame ahead of such a consumer parks on every frame and the
// consumer waits out a goroutine wake-up each time (~60 µs a frame on
// a 2-vCPU host, DESIGN.md §7); three frames of slack let the decoder
// run through the consumer's jitter instead. With GOMAXPROCS == 1 it
// decodes inline on the caller's goroutine. Either way it is the same
// frameDecoder in the same order, so blocks, errors, Frames and header
// cross-checks do not depend on the path.
// Steady-state decode reuses the block buffers and performs no
// allocation (gated by AllocsPerRun in reader_test.go), and Close hands
// the bufio window and the block buffers to the next Reader opened
// (readerSpare), so a short pass over a small trace costs no fresh
// megabyte either.
//
// A Reader is not safe for concurrent use; sweep engines open one
// Reader per consumer (see simulate.SweepStream). Close joins the
// decode goroutine, so a Reader abandoned mid-pass must be closed.
type Reader struct {
	rs   io.ReadSeeker
	file *os.File // set by OpenFile; closed by Close

	// mem holds the bufio window and the block buffers, taken from
	// readerSpare by NewReader and returned by Close; br and bufs point
	// into it, and all three are nil once the Reader is closed. Inline
	// decode uses bufs[0] only; decode-ahead fills the other three while
	// the caller reads one.
	mem  *readerMem
	br   *bufio.Reader
	bufs *[4]blockBuf

	hdrRecords int64
	hdrInstrs  int64
	fd         frameDecoder

	// Decode-ahead state. free carries empty buffers (and, from stop,
	// a nil quit request) to the goroutine, out carries decoded
	// buffers back in stream order; both are sized so no send ever
	// blocks. held is the buffer the caller was last handed.
	inline  bool // decode on the caller's goroutine this pass
	running bool
	free    chan *blockBuf
	out     chan decoded
	wg      sync.WaitGroup
	held    *blockBuf

	frames     int64  // frames surfaced this pass; at an error, those before it
	passRecs   int64  // records surfaced this pass, checked against the header at EOF
	passInstrs uint64 // instruction total surfaced this pass, ditto
	eof        bool
	err        error
}

// decoded is one decode-ahead result: a filled buffer, or the error
// (io.EOF included) that ended the pass.
type decoded struct {
	buf *blockBuf
	err error
}

// errHeaderMismatch reports a stream whose header-declared record
// total disagrees with the records its body actually holds — the
// streaming counterpart of Read's header cross-check.
var errHeaderMismatch = errors.New("trace: header record count disagrees with stream")

// errClosed is what every read of a closed Reader returns.
var errClosed = errors.New("trace: Reader used after Close")

// readerMem is the memory of one Reader that does not depend on the
// stream it reads: the bufio window (readerBufBytes) and the block
// buffers, which grow to the stream's frame size.
type readerMem struct {
	br   *bufio.Reader
	bufs [4]blockBuf
}

// readerSpare holds the memory of the last Reader closed, for the next
// one opened, until the next garbage collection. A curve server miss
// opens a 25k-record trace twice (the footprint probe and one replica
// group) and allocated a fresh megabyte of window and buffers each
// time, about all the memory such a sweep allocates. One slot, not a
// sync.Pool: a pool keeps a set per P and its victim copies alive
// between collections, which on the curve server's closed loop held
// about 4 MB more peak RSS; and emptied at each collection, unlike a
// plain slot, whose 2 MB set outlived the replay that filled it and
// raised replay_exact's peak RSS by 4 MB. Readers opened while the slot
// is empty allocate their own, as before.
var readerSpare atomic.Pointer[readerMem]

// spareSentinel is garbage from the moment it is made, so its finalizer
// runs after the next collection: it empties readerSpare and makes the
// next sentinel. The pointer field keeps it out of the tiny allocator,
// whose objects may share a finalizer's fate with their neighbours.
type spareSentinel struct{ _ *byte }

func init() { armSpareSentinel() }

func armSpareSentinel() {
	runtime.SetFinalizer(&spareSentinel{}, func(*spareSentinel) {
		readerSpare.Store(nil)
		armSpareSentinel()
	})
}

// NewReader opens a streaming reader over rs, which must be
// positioned at the start of a trace stream.
func NewReader(rs io.ReadSeeker, o ReaderOptions) (*Reader, error) {
	mem := readerSpare.Swap(nil)
	if mem == nil {
		mem = &readerMem{br: bufio.NewReaderSize(nil, readerBufBytes)}
	}
	mem.br.Reset(rs)
	r := &Reader{rs: rs, mem: mem, br: mem.br, bufs: &mem.bufs}
	if err := r.readHeader(); err != nil {
		r.release()
		return nil, err
	}
	return r, nil
}

// release hands the Reader's memory to readerSpare, once: the decode
// goroutine must be stopped. Every later read sees errClosed.
func (r *Reader) release() {
	if r.mem == nil {
		return
	}
	r.mem.br.Reset(nil) // keep no stream alive from the slot
	readerSpare.Store(r.mem)
	r.mem, r.br, r.bufs = nil, nil, nil
	r.fd = frameDecoder{}
	r.err = errClosed
}

// OpenFile opens path as a streaming reader; Close releases the file.
func OpenFile(path string, o ReaderOptions) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f, o)
	if err != nil {
		closeErr := f.Close()
		if closeErr != nil {
			return nil, errors.Join(err, closeErr)
		}
		return nil, err
	}
	r.file = f
	return r, nil
}

// ReaderOptions, ParallelReaderOptions and OpenFileParallel survive
// only because the benchmark harness (bench/) still passes and calls
// them; all three, and NewReplayer's ignored loop flag, go when it
// stops. ReaderOptions is empty: a Reader's
// blocks are the stream's own frames.
type ReaderOptions struct{}

// ParallelReaderOptions is the option set of OpenFileParallel.
type ParallelReaderOptions struct {
	// Workers is ignored: a Reader decodes ahead on one goroutine,
	// and more decoders do not keep a consumer busier.
	Workers int
}

// OpenFileParallel is OpenFile under the name the benchmark harness
// (bench/stages.go) still calls; it ignores o.Workers. It goes when
// the harness stops calling it.
func OpenFileParallel(path string, o ParallelReaderOptions) (*Reader, error) {
	return OpenFile(path, ReaderOptions{})
}

// readHeader consumes the magic and format header and resets the
// per-pass decode state. The stream must be positioned at offset 0.
func (r *Reader) readHeader() error {
	var err error
	r.hdrRecords, r.hdrInstrs, err = readHeader2(r.br)
	if err != nil {
		return err
	}
	r.fd = frameDecoder{br: r.br}
	r.inline = runtime.GOMAXPROCS(0) == 1
	r.eof = false
	r.err = nil
	r.frames = 0
	r.passRecs = 0
	r.passInstrs = 0
	return nil
}

// endOfPass runs once the stream reports a clean end: the surfaced
// record and instruction totals must match the known header counts,
// exactly as the in-memory decoder enforces.
//
//lint:hotpath
func (r *Reader) endOfPass() error {
	if r.hdrRecords >= 0 && r.passRecs != r.hdrRecords {
		return errHeaderMismatch
	}
	if r.hdrInstrs >= 0 && r.passInstrs != uint64(r.hdrInstrs) {
		return errHeaderMismatch
	}
	return nil
}

// NextBlock returns the next decoded block of records, or (nil, nil)
// once the pass is complete. The returned slice is only valid until
// the next NextBlock or Rewind call (the buffer is recycled).
//
//lint:hotpath
func (r *Reader) NextBlock() ([]Record, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.eof {
		return nil, nil
	}
	buf, err := r.nextBuf()
	if err == io.EOF {
		if err := r.endOfPass(); err != nil {
			r.err = err
			return nil, err
		}
		r.eof = true
		return nil, nil
	}
	if err != nil {
		r.err = err
		return nil, err
	}
	r.frames++
	r.passRecs += int64(buf.n)
	r.passInstrs += buf.instrs
	return buf.recs[:buf.n], nil
}

// nextBuf yields the pass's next decoded buffer: decoded in place on
// the inline path, or taken from the goroutine, which is started on
// the pass's first block and handed back the caller's previous buffer.
//
//lint:hotpath
func (r *Reader) nextBuf() (*blockBuf, error) {
	if r.inline {
		buf := &r.bufs[0]
		_, err := r.fd.next(buf)
		return buf, err
	}
	if !r.running {
		r.start()
	}
	if r.held != nil {
		r.free <- r.held
		r.held = nil
	}
	d := <-r.out
	if d.err != nil {
		r.stop()
		return nil, d.err
	}
	r.held = d.buf
	return d.buf, nil
}

// start launches the pass's decode goroutine with every buffer free.
func (r *Reader) start() {
	if r.free == nil {
		//lint:ignore hotalloc the channels are made once per Reader, on its first decode-ahead pass, and reused by every later one
		r.free = make(chan *blockBuf, len(r.bufs)+1)
		//lint:ignore hotalloc the channels are made once per Reader, on its first decode-ahead pass, and reused by every later one
		r.out = make(chan decoded, len(r.bufs))
	}
	for i := range r.bufs {
		r.free <- &r.bufs[i]
	}
	r.running = true
	r.wg.Add(1)
	go r.decodeAhead()
}

// decodeAhead is the decode goroutine: it fills each free buffer with
// the next frame and exits at the first error or end of stream, or on
// stop's nil request. It is the only user of r.fd and r.br while it
// runs, and every buffer in flight is one the caller does not hold.
func (r *Reader) decodeAhead() {
	defer r.wg.Done()
	for buf := range r.free {
		if buf == nil {
			return
		}
		_, err := r.fd.next(buf)
		r.out <- decoded{buf: buf, err: err}
		if err != nil {
			return
		}
	}
}

// stop joins the decode goroutine, whether it is mid-pass or already
// gone, and empties both channels for the next start.
func (r *Reader) stop() {
	if !r.running {
		return
	}
	r.free <- nil
	r.wg.Wait()
	r.running = false
	r.held = nil
	for len(r.free) > 0 {
		<-r.free
	}
	for len(r.out) > 0 {
		<-r.out
	}
}

// Rewind restarts the stream for another pass: it joins any decode
// goroutine, seeks back to the start and re-reads the header. Blocks
// from the previous pass are invalidated.
func (r *Reader) Rewind() error {
	if r.mem == nil {
		return errClosed
	}
	r.stop()
	if _, err := r.rs.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r.br.Reset(r.rs)
	return r.readHeader()
}

// NumRecords implements BlockSource: the header-declared total (-1
// when the recorder could not patch it).
func (r *Reader) NumRecords() int64 { return r.hdrRecords }

// NumInstructions implements BlockSource: the header-declared total
// (-1 when the recorder could not patch it).
func (r *Reader) NumInstructions() int64 { return r.hdrInstrs }

// Close joins any decode goroutine, hands the Reader's buffers to the
// next Reader opened and closes the underlying file when the Reader was
// built by OpenFile. Blocks it returned are invalid from then on, and
// NextBlock and Rewind return an error.
func (r *Reader) Close() error {
	r.stop()
	r.release()
	if r.file != nil {
		f := r.file
		r.file = nil
		return f.Close()
	}
	return nil
}

var _ BlockSource = (*Reader)(nil)
