package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
)

// ReaderOptions parameterises a streaming Reader.
type ReaderOptions struct {
	// BlockRecords caps the records per block on the v1 path (v2
	// blocks are the stream's own frames). Default DefaultFrameRecords.
	BlockRecords int
}

func (o ReaderOptions) blockRecords() int {
	n := o.BlockRecords
	if n <= 0 {
		n = DefaultFrameRecords
	}
	if n > MaxFrameRecords {
		n = MaxFrameRecords
	}
	return n
}

// readerBufBytes sizes the bufio window. It is chosen so a
// default-framed v2 stream (DefaultFrameRecords records at the
// worst-case maxRecordBytes each) always fits, letting frameDecoder
// checksum and decode straight out of the buffered bytes instead of
// copying each payload.
const readerBufBytes = 1 << 19

// Reader streams a v1 or v2 trace from a seekable byte stream as
// fixed-size record blocks in O(block) memory: the out-of-core
// implementation of BlockSource. On a v2 stream with GOMAXPROCS > 1,
// a pass decodes up to three frames ahead on one background goroutine
// (see decodeAhead). The Mattson and SHARDS passes consume a frame
// about as fast as it decodes, and a decoder only one frame ahead of
// such a consumer parks on every frame and the consumer waits out a
// goroutine wake-up each time (~60 µs a frame on a 2-vCPU host,
// DESIGN.md §12); three frames of slack let the decoder run through
// the consumer's jitter instead. v1 streams and
// GOMAXPROCS == 1 decode inline on the caller's goroutine. Either way
// it is the same frameDecoder in the same order, so blocks, errors,
// Frames and header cross-checks do not depend on the path.
// Steady-state decode reuses the block buffers and performs no
// allocation (gated by AllocsPerRun in reader_test.go).
//
// A Reader is not safe for concurrent use; sweep engines open one
// Reader per consumer (see simulate.SweepStream). Close joins the
// decode goroutine, so a Reader abandoned mid-pass must be closed.
type Reader struct {
	rs   io.ReadSeeker
	br   *bufio.Reader
	opts ReaderOptions
	file *os.File // set by OpenFile; closed by Close

	version    int
	hdrRecords int64
	hdrInstrs  int64

	// v2 decode state.
	fd frameDecoder

	// v1 decode state: records remaining and the delta-chain cursor.
	v1left uint64
	v1line uint64

	// bufs are the block buffers: inline decode uses bufs[0] only;
	// decode-ahead fills the other three while the caller reads one.
	bufs [4]blockBuf

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

	frames     int64  // v2 frames surfaced this pass
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

// NewReader opens a streaming reader over rs, which must be
// positioned at the start of a trace stream.
func NewReader(rs io.ReadSeeker, o ReaderOptions) (*Reader, error) {
	r := &Reader{
		rs:         rs,
		br:         bufio.NewReaderSize(rs, readerBufBytes),
		opts:       o,
		hdrRecords: -1,
		hdrInstrs:  -1,
	}
	if err := r.readHeader(); err != nil {
		return nil, err
	}
	return r, nil
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
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r.br, head); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	switch string(head) {
	case magic:
		r.version = 1
		n, err := binary.ReadUvarint(r.br)
		if err != nil {
			return fmt.Errorf("trace: reading count: %w", truncated(err))
		}
		const maxRecords = 1 << 32
		if n > maxRecords {
			return fmt.Errorf("trace: unreasonable record count %d", n)
		}
		r.hdrRecords = int64(n)
		r.v1left = n
		r.v1line = 0
	case magic2:
		r.version = 2
		var err error
		r.hdrRecords, r.hdrInstrs, err = readHeader2(r.br)
		if err != nil {
			return err
		}
		r.fd = frameDecoder{br: r.br}
	default:
		return errors.New("trace: bad magic")
	}
	r.inline = r.version == 1 || runtime.GOMAXPROCS(0) == 1
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

// decodeInto fills one block buffer from the stream, returning io.EOF
// once the trace is exhausted.
//
//lint:hotpath
func (r *Reader) decodeInto(buf *blockBuf) error {
	if r.version == 2 {
		_, err := r.fd.next(buf)
		return err
	}
	return r.v1next(buf)
}

// v1next decodes up to BlockRecords v1 records into buf; io.EOF once
// the header-declared count is consumed. A clean-EOF check runs after
// the last record so trailing bytes fail like a v2 terminator would.
//
//lint:hotpath
func (r *Reader) v1next(buf *blockBuf) error {
	if r.v1left == 0 {
		if _, err := r.br.ReadByte(); err == nil {
			return errTrailing
		} else if err != io.EOF {
			return err
		}
		return io.EOF
	}
	want := uint64(r.opts.blockRecords())
	if r.v1left < want {
		want = r.v1left
	}
	n := int(want)
	if cap(buf.recs) < n {
		//lint:ignore hotalloc block buffers grow to the block budget once and are reused for every later block
		buf.recs = make([]Record, n)
	}
	recs := buf.recs[:n]
	line := r.v1line
	var instrs uint64
	for i := 0; i < n; i++ {
		//lint:ignore hotalloc converting the long-lived *bufio.Reader to a stdlib reader interface stores a pointer, it does not heap-allocate
		h, err := binary.ReadUvarint(r.br)
		if err != nil {
			return truncated(err)
		}
		//lint:ignore hotalloc converting the long-lived *bufio.Reader to a stdlib reader interface stores a pointer, it does not heap-allocate
		zd, err := binary.ReadUvarint(r.br)
		if err != nil {
			return truncated(err)
		}
		//lint:ignore hotalloc converting the long-lived *bufio.Reader to a stdlib reader interface stores a pointer, it does not heap-allocate
		off, err := binary.ReadUvarint(r.br)
		if err != nil {
			return truncated(err)
		}
		if off > 63 {
			return errOffsetRange
		}
		line = uint64(int64(line) + unzigzag(zd))
		instrs += h >> 1
		recs[i] = Record{
			NInstr: uint32(h >> 1),
			Addr:   line<<6 | off,
			Write:  h&1 == 1,
		}
	}
	r.v1line = line
	r.v1left -= want
	buf.n = n
	buf.instrs = instrs + uint64(n)
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
	if r.version == 2 {
		r.frames++
	}
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
		return buf, r.decodeInto(buf)
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
	r.stop()
	if _, err := r.rs.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r.br.Reset(r.rs)
	return r.readHeader()
}

// NumRecords implements BlockSource: the header-declared total (-1
// when a v2 recorder could not patch it).
func (r *Reader) NumRecords() int64 { return r.hdrRecords }

// NumInstructions implements BlockSource: v2's header-declared total,
// -1 for v1 streams (their header has no instruction count) and for
// unpatched v2 headers.
func (r *Reader) NumInstructions() int64 { return r.hdrInstrs }

// Frames returns how many v2 frames this pass has surfaced (0 for v1
// streams); at an error, the frames before the failing one.
// Diagnostic only.
func (r *Reader) Frames() int64 { return r.frames }

// Close joins any decode goroutine and closes the underlying file
// when the Reader was built by OpenFile.
func (r *Reader) Close() error {
	r.stop()
	if r.file != nil {
		f := r.file
		r.file = nil
		return f.Close()
	}
	return nil
}

var _ BlockSource = (*Reader)(nil)
