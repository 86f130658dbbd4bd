package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
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
// implementation of BlockSource. NextBlock decodes on the caller's
// goroutine: decode is a few percent of any replay, less than a
// goroutine hand-off per block costs. Steady-state decode reuses one
// block buffer and performs no allocation (gated by AllocsPerRun in
// reader_test.go).
//
// A Reader is not safe for concurrent use; sweep engines open one
// Reader per consumer (see simulate.SweepStream).
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

	buf        blockBuf // the one block NextBlock decodes into and returns
	passRecs   int64    // records surfaced this pass, checked against the header at EOF
	passInstrs uint64   // instruction total surfaced this pass, ditto
	eof        bool
	err        error
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
	r.eof = false
	r.err = nil
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
	buf := &r.buf
	err := r.decodeInto(buf)
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
	r.passRecs += int64(buf.n)
	r.passInstrs += buf.instrs
	return buf.recs[:buf.n], nil
}

// Rewind restarts the stream for another pass: it seeks back to the
// start and re-reads the header. Blocks from the previous pass are
// invalidated.
func (r *Reader) Rewind() error {
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

// Frames returns how many v2 frames have been decoded this pass (0
// for v1 streams); diagnostic only.
func (r *Reader) Frames() int64 { return r.fd.frames }

// Close closes the underlying file when the Reader was built by
// OpenFile.
func (r *Reader) Close() error {
	if r.file != nil {
		f := r.file
		r.file = nil
		return f.Close()
	}
	return nil
}

var _ BlockSource = (*Reader)(nil)
