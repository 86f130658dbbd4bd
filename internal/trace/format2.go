// The chunked binary trace format v2: framed blocks of delta+varint
// records so multi-GB traces stream through the sweep engines in
// O(block) memory.
//
// Layout:
//
//	"CPTR2\n"                                  magic (6 bytes)
//	u64le total record count                   all-ones = unknown
//	u64le total instruction count              all-ones = unknown
//	frame*:
//	    uvarint record count   (> 0)
//	    uvarint payload length (bytes)
//	    u64le   rolling checksum over the payload, chained from the
//	            previous frame's checksum (frame 0 seeds with zero)
//	    payload: per record, the triple NInstr<<1|write uvarint,
//	            zig-zag line-delta uvarint, line offset (one byte,
//	            0..63), with the delta chain restarting at line 0 on
//	            every frame boundary, so frames decode independently
//	terminator: uvarint 0, then EOF
//
// The fixed-width header counts exist so a streaming recorder can
// patch them in place after the fact (io.WriterAt / io.WriteSeeker
// sinks); the per-frame record count and payload length let a decoder
// pre-size exactly and detect truncation mid-frame, and the rolling
// checksum makes frame corruption and frame reordering both fail
// loudly.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
)

const (
	magic2      = "CPTR2\n"
	headerSize2 = len(magic2) + 16

	// DefaultFrameRecords is the Writer's default frame size: large
	// enough to amortise frame overhead to well under a bit per
	// record, small enough that one decoded frame (16 bytes/record
	// in memory) stays cache-friendly and the decode block budget is
	// tiny next to any real trace.
	DefaultFrameRecords = 1 << 14

	// MaxFrameRecords bounds the record count a decoder accepts in
	// one frame, so a corrupt header cannot force an unbounded block
	// allocation.
	MaxFrameRecords = 1 << 20

	// MaxFramePayload bounds an accepted frame payload in bytes.
	MaxFramePayload = 1 << 25

	// unknownCount is the header sentinel for "not recorded".
	unknownCount = ^uint64(0)
)

// Static decode errors: the frame decoder sits on the hot streaming
// path (//lint:hotpath via Reader.NextBlock), so its failure modes are
// preallocated sentinels rather than per-call fmt.Errorf values; cold
// callers wrap them with frame context.
var (
	errFrameRecords  = errors.New("trace: frame record count out of range")
	errFramePayload  = errors.New("trace: frame payload length out of range")
	errFrameChecksum = errors.New("trace: frame checksum mismatch")
	errFrameCount    = errors.New("trace: frame record count does not match payload")
	errOffsetRange   = errors.New("trace: record offset out of range")
	errVarint        = errors.New("trace: malformed varint")
	errTrailing      = errors.New("trace: trailing bytes after terminator frame")
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// frameChecksum chains the rolling checksum: each frame's checksum
// seeds the next, so a frame is only valid in its recorded position.
// FNV-1a folded eight bytes at a time (with the length mixed into the
// seed) keeps the check under a nanosecond per record at v2 encoding
// densities.
func frameChecksum(seed uint64, p []byte) uint64 {
	h := seed ^ (fnvOffset64 + uint64(len(p)))
	for len(p) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(p)) * fnvPrime64
		p = p[8:]
	}
	if len(p) > 0 {
		var tail uint64
		for i := 0; i < len(p); i++ {
			tail |= uint64(p[i]) << (8 * uint(i))
		}
		h = (h ^ tail) * fnvPrime64
	}
	return h
}

// appendRecord appends one record's head/delta/offset triple to dst
// and returns the new line cursor.
func appendRecord(dst []byte, prevLine uint64, r Record) ([]byte, uint64) {
	var tmp [binary.MaxVarintLen64]byte
	head := uint64(r.NInstr) << 1
	if r.Write {
		head |= 1
	}
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], head)]...)
	line := r.Addr >> 6
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], zigzag(int64(line)-int64(prevLine)))]...)
	dst = append(dst, byte(r.Addr&63))
	return dst, line
}

// WriterOptions parameterises a v2 encoder.
type WriterOptions struct {
	// FrameRecords caps how many records one frame holds (default
	// DefaultFrameRecords, clamped to [1, MaxFrameRecords]).
	FrameRecords int
}

func (o WriterOptions) frameRecords() int {
	fr := o.FrameRecords
	if fr <= 0 {
		fr = DefaultFrameRecords
	}
	if fr > MaxFrameRecords {
		fr = MaxFrameRecords
	}
	return fr
}

// Writer is a streaming v2 encoder: records are appended one at a
// time and flushed frame-by-frame, so a recorder never holds more
// than one frame in memory. The header's total counts are written as
// unknown up front and patched at Close when the sink supports random
// access (io.WriterAt or io.WriteSeeker — *os.File does); on a pure
// io.Writer they stay unknown, which readers handle.
type Writer struct {
	dst          io.Writer
	bw           *bufio.Writer
	frameRecords int
	headerKnown  bool

	payload  []byte
	count    int
	prevLine uint64
	chk      uint64

	records uint64
	instrs  uint64
	closed  bool
	err     error
}

// NewWriter starts a v2 stream on dst with unknown header counts
// (patched at Close when dst supports random access).
func NewWriter(dst io.Writer, o WriterOptions) (*Writer, error) {
	return newWriter(dst, o, 0, 0, false)
}

// newWriter starts a v2 stream; with known set, the header counts are
// written up front (Trace.WriteV2 knows them before the first frame).
func newWriter(dst io.Writer, o WriterOptions, records, instrs uint64, known bool) (*Writer, error) {
	w := &Writer{
		dst:          dst,
		bw:           bufio.NewWriter(dst),
		frameRecords: o.frameRecords(),
		headerKnown:  known,
	}
	var hdr [headerSize2]byte
	copy(hdr[:], magic2)
	rc, ic := unknownCount, unknownCount
	if known {
		rc, ic = records, instrs
	}
	binary.LittleEndian.PutUint64(hdr[len(magic2):], rc)
	binary.LittleEndian.PutUint64(hdr[len(magic2)+8:], ic)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return w, nil
}

// Append encodes one record into the current frame, flushing the
// frame when it is full.
func (w *Writer) Append(r Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: append to closed writer")
	}
	w.payload, w.prevLine = appendRecord(w.payload, w.prevLine, r)
	w.count++
	w.records++
	w.instrs += uint64(r.NInstr) + 1
	if w.count >= w.frameRecords {
		return w.flushFrame()
	}
	return nil
}

// flushFrame emits the buffered frame: count, payload length, rolling
// checksum, payload.
func (w *Writer) flushFrame() error {
	if w.count == 0 {
		return nil
	}
	w.chk = frameChecksum(w.chk, w.payload)
	var tmp [binary.MaxVarintLen64]byte
	if _, err := w.bw.Write(tmp[:binary.PutUvarint(tmp[:], uint64(w.count))]); err != nil {
		return w.fail(err)
	}
	if _, err := w.bw.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(w.payload)))]); err != nil {
		return w.fail(err)
	}
	var chk [8]byte
	binary.LittleEndian.PutUint64(chk[:], w.chk)
	if _, err := w.bw.Write(chk[:]); err != nil {
		return w.fail(err)
	}
	if _, err := w.bw.Write(w.payload); err != nil {
		return w.fail(err)
	}
	w.count = 0
	w.payload = w.payload[:0]
	w.prevLine = 0
	return nil
}

func (w *Writer) fail(err error) error {
	w.err = err
	return err
}

// Records returns how many records have been appended so far.
func (w *Writer) Records() uint64 { return w.records }

// Instructions returns the total instructions appended so far.
func (w *Writer) Instructions() uint64 { return w.instrs }

// Close flushes the last frame, writes the terminator, and patches
// the header's total counts in place when the sink supports it. It
// does not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushFrame(); err != nil {
		return err
	}
	if err := w.bw.WriteByte(0); err != nil { // terminator: record count 0
		return w.fail(err)
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	if w.headerKnown {
		return nil
	}
	var cnt [16]byte
	binary.LittleEndian.PutUint64(cnt[:8], w.records)
	binary.LittleEndian.PutUint64(cnt[8:], w.instrs)
	switch dst := w.dst.(type) {
	case io.WriterAt:
		if _, err := dst.WriteAt(cnt[:], int64(len(magic2))); err != nil {
			return w.fail(err)
		}
	case io.WriteSeeker:
		if _, err := dst.Seek(int64(len(magic2)), io.SeekStart); err != nil {
			return w.fail(err)
		}
		if _, err := dst.Write(cnt[:]); err != nil {
			return w.fail(err)
		}
		if _, err := dst.Seek(0, io.SeekEnd); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

// WriteV2 encodes the trace in the framed v2 format with the default
// frame size; the header counts are exact (no patching needed).
func (t *Trace) WriteV2(w io.Writer) error {
	return t.WriteV2Frames(w, 0)
}

// WriteV2Frames is WriteV2 with an explicit frame size (0 = default).
func (t *Trace) WriteV2Frames(w io.Writer, frameRecords int) error {
	enc, err := newWriter(w, WriterOptions{FrameRecords: frameRecords},
		uint64(len(t.Records)), t.Instructions(), true)
	if err != nil {
		return err
	}
	var appendErr error
	for _, r := range t.Records {
		if appendErr = enc.Append(r); appendErr != nil {
			break
		}
	}
	// Close even after a failed append so the encoder's buffered state
	// is released; the append error stays the primary one.
	if cerr := enc.Close(); appendErr == nil {
		return cerr
	}
	return appendErr
}

// readHeader2 reads the magic and the two fixed-width header counts;
// -1 means the recorder could not patch them. Any other magic, the
// retired flat v1 format's included, is an error.
func readHeader2(br *bufio.Reader) (records, instrs int64, err error) {
	head := make([]byte, len(magic2))
	if _, err := io.ReadFull(br, head); err != nil {
		return 0, 0, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic2 {
		return 0, 0, errors.New("trace: bad magic")
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("trace: reading v2 header: %w", truncated(err))
	}
	records, instrs = -1, -1
	if rc := binary.LittleEndian.Uint64(hdr[:8]); rc != unknownCount {
		records = int64(rc)
	}
	if ic := binary.LittleEndian.Uint64(hdr[8:]); ic != unknownCount {
		instrs = int64(ic)
	}
	return records, instrs, nil
}

// truncated normalises a bare EOF inside a structure to
// io.ErrUnexpectedEOF: the stream ended where the format promised
// more bytes.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// blockBuf is one decode block: the frame's payload and its decoded
// records, both reused across frames so steady-state decode never
// allocates. A decode-ahead Reader shares the blocks it has framed
// between its goroutine and its consumer; state says which of the two
// decodes each one (see Reader.claim).
type blockBuf struct {
	payload []byte // owned payload copy: oversized frames, and every frame framed ahead
	frame   []byte // the framed payload awaiting decode: payload[:plen], or bytes of the bufio window
	recs    []Record
	n       int
	instrs  uint64 // instruction total of recs[:n] (each record is NInstr+1)
	err     error  // decode error of a block framed ahead

	seq   int64         // stream index of a block framed ahead
	state atomic.Int32  // blockIdle ... blockConsumer
	done  chan struct{} // the goroutine's token for a block it claimed, sent once decoded
}

// decode decodes the framed payload into the block's records.
//
//lint:hotpath
func (buf *blockBuf) decode() error {
	if cap(buf.recs) < buf.n {
		//lint:ignore hotalloc block buffers grow to the stream's frame size once and are reused for every later frame
		buf.recs = make([]Record, buf.n)
	}
	instrs, err := decodeRecords(buf.frame, buf.recs[:buf.n])
	buf.instrs = instrs
	return err
}

// frameDecoder reads consecutive v2 frames from a buffered stream,
// carrying the rolling checksum chain. It is shared by the in-memory
// Read path and the streaming Reader.
type frameDecoder struct {
	br     *bufio.Reader
	chk    uint64
	frames int64 // frames decoded by next
	done   bool
	// peeked is how many window bytes the last frame's payload aliases,
	// discarded once it is decoded.
	peeked int
	// chkb is the checksum-read scratch; a function-local array would
	// escape through io.ReadFull and cost one allocation per frame.
	chkb [8]byte
}

// next frames and decodes one frame into buf and returns its record
// count, or io.EOF after a clean terminator. The frame's record count,
// payload length, checksum and varint structure are all verified
// before any record is surfaced.
//
//lint:hotpath
func (fd *frameDecoder) next(buf *blockBuf) (int, error) {
	if err := fd.frame(buf, false); err != nil {
		return 0, err
	}
	if err := buf.decode(); err != nil {
		return 0, err
	}
	if fd.peeked > 0 {
		if _, err := fd.br.Discard(fd.peeked); err != nil {
			return 0, truncated(err)
		}
	}
	fd.frames++
	return buf.n, nil
}

// frame reads one frame's header and payload and checks the payload
// against the checksum chain, leaving buf.n and buf.frame set for
// decode, or returns io.EOF after a clean terminator. With own unset a
// frame that fits the bufio window is not copied: buf.frame aliases
// the window, valid until fd.peeked bytes are discarded. Otherwise,
// and always with own set, the payload is copied into buf.payload,
// where it outlives the window.
//
//lint:hotpath
func (fd *frameDecoder) frame(buf *blockBuf, own bool) error {
	if fd.done {
		return io.EOF
	}
	//lint:ignore hotalloc converting the long-lived *bufio.Reader to a stdlib reader interface stores a pointer, it does not heap-allocate
	count64, err := binary.ReadUvarint(fd.br)
	if err != nil {
		return truncated(err)
	}
	if count64 == 0 {
		fd.done = true
		if _, err := fd.br.ReadByte(); err == nil {
			return errTrailing
		} else if err != io.EOF {
			return err
		}
		return io.EOF
	}
	if count64 > MaxFrameRecords {
		return errFrameRecords
	}
	//lint:ignore hotalloc converting the long-lived *bufio.Reader to a stdlib reader interface stores a pointer, it does not heap-allocate
	plen64, err := binary.ReadUvarint(fd.br)
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
	//lint:ignore hotalloc converting the long-lived *bufio.Reader to a stdlib reader interface stores a pointer, it does not heap-allocate
	if _, err := io.ReadFull(fd.br, fd.chkb[:]); err != nil {
		return truncated(err)
	}
	var p []byte
	fd.peeked = 0
	if !own {
		if p, err = fd.br.Peek(plen); err == nil {
			fd.peeked = plen
		}
	}
	if fd.peeked == 0 {
		if cap(buf.payload) < plen {
			//lint:ignore hotalloc block buffers grow to the stream's frame size once and are reused for every later frame
			buf.payload = make([]byte, plen)
		}
		p = buf.payload[:plen]
		//lint:ignore hotalloc converting the long-lived *bufio.Reader to a stdlib reader interface stores a pointer, it does not heap-allocate
		if _, err := io.ReadFull(fd.br, p); err != nil {
			return truncated(err)
		}
	}
	chk := frameChecksum(fd.chk, p)
	if chk != binary.LittleEndian.Uint64(fd.chkb[:]) {
		return errFrameChecksum
	}
	fd.chk = chk
	buf.frame = p
	buf.n = count
	return nil
}

// maxRecordBytes is the largest possible encoding of one record: two
// 10-byte uvarints plus the offset byte. The decode fast path uses it
// to prove a whole record is readable with one comparison.
const maxRecordBytes = 2*binary.MaxVarintLen64 + 1

// Bit masks of the wide varint decode: the continuation bit and the
// seven payload bits of each byte in a little-endian 8-byte load.
const (
	contBits    = 0x8080808080808080
	payloadBits = 0x7F7F7F7F7F7F7F7F
)

// decodeRecords decodes exactly len(out) records from a frame payload,
// consuming it fully. This loop is the decode kernel the 100M+
// records/sec budget lives in, so the varints are open-coded — a
// function call per varint would dominate — with straight-line one-
// and two-byte paths (which cover every realistic head and delta) and
// a fast region that hoists the per-byte truncation checks: while a
// maximal record is provably readable, only structural validity is
// checked. The careful loop finishes the frame's tail. The returned
// total is the decoded records' instruction count (NInstr+1 each),
// accumulated here so header cross-checks cost no second pass.
//
//lint:hotpath
func decodeRecords(p []byte, out []Record) (uint64, error) {
	i := 0
	n := len(p)
	var prevLine uint64
	var instrs uint64
	r := 0
	for r < len(out) && n-i >= maxRecordBytes {
		// Decode each varint branchlessly from one 8-byte load: the
		// first clear continuation bit (TrailingZeros) gives the
		// length, a mask drops the bytes past it, and three fold
		// steps compact the 7-bit groups in parallel — no serial
		// per-byte loads and no length-dependent branch to
		// mispredict on mixed-length streams. Varints longer than 8
		// bytes (values above 2^56) fall back to the byte loop;
		// n-i >= maxRecordBytes makes the wide loads in-bounds.
		x := binary.LittleEndian.Uint64(p[i:])
		var head uint64
		if x&0x80 == 0 {
			head = x & 0x7f
			i++
		} else if x&0x8000 == 0 {
			head = x&0x7f | x&0x7f00>>1
			i += 2
		} else if m := ^x & contBits; m != 0 {
			tz := uint(bits.TrailingZeros64(m)) // = 8*(len-1) + 7
			x &= ^uint64(0) >> (63 - tz)        // drop bytes past the terminator
			x &= payloadBits                    // drop continuation bits
			x = x&0x007F007F007F007F | x&0x7F007F007F007F00>>1
			x = x&0x00003FFF00003FFF | x&0x3FFF00003FFF0000>>2
			head = x&0x000000000FFFFFFF | x&0x0FFFFFFF00000000>>4
			i += int(tz>>3) + 1
		} else {
			// 9- or 10-byte varint: all eight loaded bytes continue.
			head = x & 0x7f
			i++
			shift := 7
			for {
				b := p[i]
				i++
				if shift >= 63 && b > 1 {
					return 0, errVarint
				}
				head |= uint64(b&0x7f) << shift
				if b < 0x80 {
					break
				}
				shift += 7
			}
		}
		x = binary.LittleEndian.Uint64(p[i:])
		var zd uint64
		// Deltas are the high-entropy field (a length cascade would
		// mispredict constantly on mixed 2-3 byte deltas), so they go
		// straight to the branchless extract.
		if m := ^x & contBits; m != 0 {
			tz := uint(bits.TrailingZeros64(m))
			x &= ^uint64(0) >> (63 - tz)
			x &= payloadBits
			x = x&0x007F007F007F007F | x&0x7F007F007F007F00>>1
			x = x&0x00003FFF00003FFF | x&0x3FFF00003FFF0000>>2
			zd = x&0x000000000FFFFFFF | x&0x0FFFFFFF00000000>>4
			i += int(tz>>3) + 1
		} else {
			zd = x & 0x7f
			i++
			shift := 7
			for {
				b := p[i]
				i++
				if shift >= 63 && b > 1 {
					return 0, errVarint
				}
				zd |= uint64(b&0x7f) << shift
				if b < 0x80 {
					break
				}
				shift += 7
			}
		}
		off := p[i]
		i++
		if off > 63 {
			return 0, errOffsetRange
		}
		line := uint64(int64(prevLine) + unzigzag(zd))
		prevLine = line
		instrs += head >> 1
		out[r] = Record{
			NInstr: uint32(head >> 1),
			Addr:   line<<6 | uint64(off),
			Write:  head&1 == 1,
		}
		r++
	}
	for ; r < len(out); r++ {
		if i >= n {
			return 0, errFrameCount
		}
		head := uint64(p[i])
		i++
		if head >= 0x80 {
			head &= 0x7f
			shift := 7
			for {
				if i >= n {
					return 0, errFrameCount
				}
				b := p[i]
				i++
				if shift >= 63 && b > 1 {
					return 0, errVarint
				}
				head |= uint64(b&0x7f) << shift
				if b < 0x80 {
					break
				}
				shift += 7
			}
		}
		if i >= n {
			return 0, errFrameCount
		}
		zd := uint64(p[i])
		i++
		if zd >= 0x80 {
			zd &= 0x7f
			shift := 7
			for {
				if i >= n {
					return 0, errFrameCount
				}
				b := p[i]
				i++
				if shift >= 63 && b > 1 {
					return 0, errVarint
				}
				zd |= uint64(b&0x7f) << shift
				if b < 0x80 {
					break
				}
				shift += 7
			}
		}
		if i >= n {
			return 0, errFrameCount
		}
		off := p[i]
		i++
		if off > 63 {
			return 0, errOffsetRange
		}
		line := uint64(int64(prevLine) + unzigzag(zd))
		prevLine = line
		instrs += head >> 1
		out[r] = Record{
			NInstr: uint32(head >> 1),
			Addr:   line<<6 | uint64(off),
			Write:  head&1 == 1,
		}
	}
	if i != n {
		return 0, errFrameCount
	}
	return instrs + uint64(len(out)), nil
}

// Stats summarises a trace stream without decoding it into memory.
type Stats struct {
	Records      int64 // frame record total
	Instructions int64 // header-declared total, -1 when the recorder could not patch it
	Frames       int64
	Bytes        int64 // stream size, -1 when the reader has no length
}

// BytesPerRecord returns the encoded density, or 0 when unknown.
func (s Stats) BytesPerRecord() float64 {
	if s.Bytes < 0 || s.Records == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Records)
}

// Stat skims a trace stream: it walks the frame headers and skips the
// payloads (no checksum verification — that is Reader's job, see
// cmd/tracer info -check). The header's record total is cross-checked
// against the frames'.
func Stat(rs io.ReadSeeker) (Stats, error) {
	st := Stats{Bytes: streamBytes(rs)}
	br := bufio.NewReaderSize(rs, 1<<16)
	hdrRecords, hdrInstrs, err := readHeader2(br)
	if err != nil {
		return st, err
	}
	st.Instructions = hdrInstrs
	for {
		count64, err := binary.ReadUvarint(br)
		if err != nil {
			return st, fmt.Errorf("trace: frame %d: %w", st.Frames, truncated(err))
		}
		if count64 == 0 {
			break
		}
		if count64 > MaxFrameRecords {
			return st, fmt.Errorf("trace: frame %d: %w", st.Frames, errFrameRecords)
		}
		plen64, err := binary.ReadUvarint(br)
		if err != nil {
			return st, fmt.Errorf("trace: frame %d: %w", st.Frames, truncated(err))
		}
		if plen64 > MaxFramePayload {
			return st, fmt.Errorf("trace: frame %d: %w", st.Frames, errFramePayload)
		}
		if _, err := br.Discard(8 + int(plen64)); err != nil {
			return st, fmt.Errorf("trace: frame %d: %w", st.Frames, truncated(err))
		}
		st.Records += int64(count64)
		st.Frames++
	}
	if hdrRecords >= 0 && hdrRecords != st.Records {
		return st, fmt.Errorf("trace: header declares %d records, frames hold %d", hdrRecords, st.Records)
	}
	return st, nil
}
