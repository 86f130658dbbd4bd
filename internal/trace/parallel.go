// Parallel v2 frame decode: the multi-core implementation of
// BlockSource. The v2 format was built for this — every frame restarts
// the delta chain at line 0 (see flushFrame / decodeRecords), so a
// frame's payload decodes with no predecessor state, and the rolling
// checksum chain parallelises by trusting the *stored* per-frame
// checksums as seeds: the sequential scanner reads each frame's header
// and stored checksum without touching the payload, and worker k
// verifies frameChecksum(stored[k-1], payload[k]) == stored[k]. If any
// payload or stored checksum is corrupt, the first in-order failure is
// at exactly the frame the sync Reader would fail on, because the
// stored seeds equal the computed chain on every frame before the
// corruption.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"cachepirate/internal/runner"
)

// ParallelReaderOptions parameterises a ParallelReader.
type ParallelReaderOptions struct {
	// ReaderOptions apply to the fallback sync Reader (v1 streams and
	// Workers == 1); BlockRecords also caps v1 block sizes there.
	ReaderOptions
	// Workers is the decode-pool width. Values <= 0 mean
	// runtime.GOMAXPROCS(0); 1 selects the sync Reader.
	Workers int
	// Depth is the buffer-pool size (how many frames can be in flight
	// between the scanner and the consumer). Default 2*Workers,
	// clamped to [Workers+1, 64].
	Depth int
}

func (o ParallelReaderOptions) workers() int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > 32 {
		w = 32
	}
	return w
}

func (o ParallelReaderOptions) depth() int {
	w := o.workers()
	d := o.Depth
	if d <= 0 {
		d = 2 * w
	}
	if d < w+1 {
		d = w + 1
	}
	if d > 64 {
		d = 64
	}
	return d
}

// pblock is one in-flight frame: the scanner copies the raw payload
// and checksum-chain endpoints in, a pool worker verifies and decodes,
// the consumer reads recs[:n]. All buffers are pool-owned and reused
// (free list, not sync.Pool), so steady-state parallel decode does not
// allocate.
type pblock struct {
	payload []byte // raw frame payload (length = this frame's plen)
	recs    []Record
	n       int
	instrs  uint64
	seed    uint64 // previous frame's stored checksum (chain seed)
	want    uint64 // this frame's stored checksum
}

// ParallelReader streams a trace as record blocks like Reader, but
// fans v2 frames out to a bounded decode pool (runner.StartPipe) with
// in-order reassembly: blocks, errors and header cross-checks are
// bit-identical to the sync Reader's, only wall-clock changes. v1
// streams (whose single delta chain cannot split) and Workers == 1
// delegate to the sync Reader.
//
// A ParallelReader is not safe for concurrent use — the pool
// parallelism is internal; the consumer is still one goroutine.
type ParallelReader struct {
	inner *Reader // v1 or Workers == 1 fallback; nil on the parallel path

	rs   io.ReadSeeker
	br   *bufio.Reader
	opts ParallelReaderOptions
	file *os.File // set by OpenFileParallel; closed by Close

	hdrRecords int64
	hdrInstrs  int64

	// Scanner state: the checksum chain cursor and the terminator
	// latch, touched only by the pipe's sequential read step.
	chain    uint64
	scanDone bool
	chkb     [8]byte

	bufs []*pblock
	pipe *runner.Pipe[*pblock]

	// Consumer state: frames delivered, per-pass totals for the
	// header cross-check, and the sticky end state.
	frames     int64
	passRecs   int64
	passInstrs uint64
	eof        bool
	err        error
}

// NewParallelReader opens a parallel streaming reader over rs, which
// must be positioned at the start of a trace stream.
func NewParallelReader(rs io.ReadSeeker, o ParallelReaderOptions) (*ParallelReader, error) {
	if o.workers() == 1 {
		inner, err := NewReader(rs, o.ReaderOptions)
		if err != nil {
			return nil, err
		}
		return &ParallelReader{inner: inner}, nil
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(rs, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch string(head) {
	case magic:
		// v1 has one stream-wide delta chain: nothing to parallelise.
		if _, err := rs.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		inner, err := NewReader(rs, o.ReaderOptions)
		if err != nil {
			return nil, err
		}
		return &ParallelReader{inner: inner}, nil
	case magic2:
	default:
		return nil, errors.New("trace: bad magic")
	}
	r := &ParallelReader{
		rs:   rs,
		br:   bufio.NewReaderSize(rs, readerBufBytes),
		opts: o,
	}
	var err error
	r.hdrRecords, r.hdrInstrs, err = readHeader2(r.br)
	if err != nil {
		return nil, err
	}
	r.bufs = make([]*pblock, o.depth())
	for i := range r.bufs {
		r.bufs[i] = &pblock{}
	}
	r.startPipe()
	return r, nil
}

// OpenFileParallel opens path as a parallel streaming reader; Close
// releases the file.
func OpenFileParallel(path string, o ParallelReaderOptions) (*ParallelReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewParallelReader(f, o)
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

func (r *ParallelReader) startPipe() {
	r.pipe = runner.StartPipe(r.bufs, r.opts.workers(), r.scanFrame, decodeFrame)
}

// scanFrame is the pipe's sequential step: it parses one frame's
// header off the stream, copies the payload into the block buffer, and
// records the checksum-chain endpoints — every structural bound the
// sync frameDecoder enforces is enforced here, in the same order, so
// malformed streams fail identically. Payload verification and record
// decode happen later, in decodeFrame, on a pool worker.
func (r *ParallelReader) scanFrame(b *pblock) error {
	if r.scanDone {
		return io.EOF
	}
	count64, err := binary.ReadUvarint(r.br)
	if err != nil {
		return truncated(err)
	}
	if count64 == 0 {
		r.scanDone = true
		if _, err := r.br.ReadByte(); err == nil {
			return errTrailing
		} else if err != io.EOF {
			return err
		}
		return io.EOF
	}
	if count64 > MaxFrameRecords {
		return errFrameRecords
	}
	plen64, err := binary.ReadUvarint(r.br)
	if err != nil {
		return truncated(err)
	}
	if plen64 > MaxFramePayload {
		return errFramePayload
	}
	count, plen := int(count64), int(plen64)
	if plen < count*minRecordBytes {
		return errFrameCount
	}
	if _, err := io.ReadFull(r.br, r.chkb[:]); err != nil {
		return truncated(err)
	}
	if cap(b.payload) < plen {
		// Pool buffers grow once and are reused for every later frame;
		// rounding the capacity to a power of two makes every buffer
		// converge to the same size even though frame payloads jitter
		// by a few bytes, so a buffer never re-grows for a frame
		// marginally larger than the ones it happened to see first.
		cp := 64
		for cp < plen {
			cp <<= 1
		}
		b.payload = make([]byte, plen, cp)
	}
	b.payload = b.payload[:plen]
	if _, err := io.ReadFull(r.br, b.payload); err != nil {
		return truncated(err)
	}
	b.n = count
	b.seed = r.chain
	b.want = binary.LittleEndian.Uint64(r.chkb[:])
	r.chain = b.want
	return nil
}

// decodeFrame is the pipe's parallel step: checksum-verify the payload
// against its position in the chain, then varint-decode the records.
// It touches only its own block — frameChecksum and decodeRecords are
// pure — so workers never share state.
func decodeFrame(b *pblock) error {
	if frameChecksum(b.seed, b.payload) != b.want {
		return errFrameChecksum
	}
	if cap(b.recs) < b.n {
		b.recs = make([]Record, b.n)
	}
	instrs, err := decodeRecords(b.payload, b.recs[:b.n])
	if err != nil {
		return err
	}
	b.instrs = instrs
	return nil
}

// endOfPass mirrors Reader.endOfPass: the surfaced totals must match
// the header counts.
func (r *ParallelReader) endOfPass() error {
	if r.hdrRecords >= 0 && r.passRecs != r.hdrRecords {
		return errHeaderMismatch
	}
	if r.hdrInstrs >= 0 && r.passInstrs != uint64(r.hdrInstrs) {
		return errHeaderMismatch
	}
	return nil
}

// NextBlock implements BlockSource with the sync Reader's exact
// contract: blocks in stream order, (nil, nil) at end of pass, sticky
// errors, and the returned slice valid only until the next NextBlock
// or Rewind.
func (r *ParallelReader) NextBlock() ([]Record, error) {
	if r.inner != nil {
		return r.inner.NextBlock()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.eof {
		return nil, nil
	}
	b, err := r.pipe.Next()
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
	r.passRecs += int64(b.n)
	r.passInstrs += b.instrs
	return b.recs[:b.n], nil
}

// Rewind restarts the stream for another pass: the decode pool is
// drained and relaunched over the same buffer pool.
func (r *ParallelReader) Rewind() error {
	if r.inner != nil {
		return r.inner.Rewind()
	}
	r.pipe.Stop()
	if _, err := r.rs.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r.br.Reset(r.rs)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r.br, head); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic2 {
		return errors.New("trace: bad magic")
	}
	var err error
	r.hdrRecords, r.hdrInstrs, err = readHeader2(r.br)
	if err != nil {
		return err
	}
	r.chain = 0
	r.scanDone = false
	r.frames = 0
	r.passRecs = 0
	r.passInstrs = 0
	r.eof = false
	r.err = nil
	r.startPipe()
	return nil
}

// NumRecords implements BlockSource: the header-declared total (-1
// when a v2 recorder could not patch it).
func (r *ParallelReader) NumRecords() int64 {
	if r.inner != nil {
		return r.inner.NumRecords()
	}
	return r.hdrRecords
}

// NumInstructions implements BlockSource: the header-declared total,
// -1 when unknown.
func (r *ParallelReader) NumInstructions() int64 {
	if r.inner != nil {
		return r.inner.NumInstructions()
	}
	return r.hdrInstrs
}

// Frames returns how many v2 frames have been delivered this pass (0
// for v1 streams); diagnostic only. At an error it equals the sync
// Reader's count at the same error: the frames before the corrupt one.
func (r *ParallelReader) Frames() int64 {
	if r.inner != nil {
		return r.inner.Frames()
	}
	return r.frames
}

// Close stops the decode pool and, when the reader was built by
// OpenFileParallel, closes the underlying file.
func (r *ParallelReader) Close() error {
	if r.inner != nil {
		err := r.inner.Close()
		if r.file != nil { // the inner reader owns no file; ours is here
			f := r.file
			r.file = nil
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	if r.pipe != nil {
		r.pipe.Stop()
		r.pipe = nil
	}
	if r.file != nil {
		f := r.file
		r.file = nil
		return f.Close()
	}
	return nil
}

var _ BlockSource = (*ParallelReader)(nil)
