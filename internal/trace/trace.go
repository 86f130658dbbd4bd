// Package trace provides the address-trace substrate the paper's
// reference methodology needs (§III-B1): one compact binary trace
// format, capture from any record source with start/stop markers
// (standing in for Pin's "attach at instruction address"), and replay —
// either wholly in memory or streamed out-of-core in fixed-size record
// blocks (see format2.go and reader.go).
//
// Each record is a varint triple: the instruction gap since the
// previous record with a read/write flag folded into its low bit, the
// zig-zag delta of the line-granular address, and the offset within
// the line. The format (format2.go, magic CPTR2) frames these triples
// into checksummed blocks so multi-GB traces can be decoded
// block-at-a-time in O(block) memory.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sync/atomic"
)

// Record is one memory reference: NInstr non-memory instructions
// executed since the previous record, then one access to Addr. The
// widest field leads so the struct packs into 16 bytes, not 24
// (TestRecordBytes): a decoded frame and an in-memory trace hold one
// per access.
type Record struct {
	Addr   uint64
	NInstr uint32
	Write  bool
}

// Trace is an in-memory address trace. Records must not be mutated
// after the first Instructions call (the total is cached).
type Trace struct {
	Records []Record

	// instrs caches Instructions() as total+1 (0 = not yet computed),
	// written once at capture/decode time — or lazily on first call —
	// so per-sweep-config callers do not recompute an O(n) sum.
	// Atomic (8-byte aligned on 32-bit platforms too): sweep workers
	// share read-only traces and may race on the first lazy computation.
	instrs atomic.Uint64
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Instructions returns the total instruction count the trace
// represents (each record is NInstr plain instructions + 1 access).
// The sum is computed once — at capture/decode time for traces built
// by this package, on first call otherwise — and cached.
func (t *Trace) Instructions() uint64 {
	if v := t.instrs.Load(); v != 0 {
		return v - 1
	}
	var n uint64
	for i := range t.Records {
		n += uint64(t.Records[i].NInstr) + 1
	}
	t.instrs.Store(n + 1)
	return n
}

// setInstructions seeds the Instructions cache at capture/decode time.
func (t *Trace) setInstructions(n uint64) {
	t.instrs.Store(n + 1)
}

// Source produces records one at a time; workload generators adapt to
// this interface for capture.
type Source interface {
	NextRecord() Record
}

// Capture pulls n records from src into a Trace. It is the simulated
// analogue of attaching Pin at a hot-code marker and tracing a fixed
// number of memory accesses.
func Capture(src Source, n int) *Trace {
	t := &Trace{Records: make([]Record, 0, n)}
	var instrs uint64
	for i := 0; i < n; i++ {
		r := src.NextRecord()
		instrs += uint64(r.NInstr) + 1
		t.Records = append(t.Records, r)
	}
	t.setInstructions(instrs)
	return t
}

// minRecordBytes is the smallest possible encoding of one record
// (three fields, at least one byte each); decoders use it to bound
// pre-allocation by what a stream could physically hold.
const minRecordBytes = 3

// Read decodes a trace written by WriteV2 or Writer into memory. The
// record slice is pre-sized from the header's record count, clamped by
// what the stream could physically hold so a corrupt count cannot
// force a huge allocation.
func Read(r io.Reader) (*Trace, error) {
	hint := streamBytes(r)
	br := bufio.NewReader(r)
	hdrRecords, hdrInstrs, err := readHeader2(br)
	if err != nil {
		return nil, err
	}
	capHint := uint64(fallbackCapRecords)
	if hdrRecords >= 0 {
		capHint = uint64(hdrRecords)
	}
	t := &Trace{Records: make([]Record, 0, recordCap(capHint, hint))}
	fd := frameDecoder{br: br}
	var buf blockBuf
	var instrs uint64
	for {
		n, err := fd.next(&buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: frame %d: %w", fd.frames, err)
		}
		instrs += buf.instrs
		t.Records = append(t.Records, buf.recs[:n]...)
	}
	if hdrRecords >= 0 && int64(len(t.Records)) != hdrRecords {
		return nil, fmt.Errorf("trace: header declares %d records, stream holds %d", hdrRecords, len(t.Records))
	}
	if hdrInstrs >= 0 && uint64(hdrInstrs) != instrs {
		return nil, fmt.Errorf("trace: header declares %d instructions, stream holds %d", hdrInstrs, instrs)
	}
	t.setInstructions(instrs)
	return t, nil
}

// streamBytes returns the total bytes remaining in r, or -1 when the
// reader exposes no length. It must be called before r is wrapped in a
// bufio.Reader (buffering would hide consumed bytes from Len).
func streamBytes(r io.Reader) int64 {
	if lr, ok := r.(interface{ Len() int }); ok {
		return int64(lr.Len())
	}
	if s, ok := r.(io.Seeker); ok {
		cur, err := s.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		end, err := s.Seek(0, io.SeekEnd)
		if err != nil {
			return -1
		}
		if _, err := s.Seek(cur, io.SeekStart); err != nil {
			return -1
		}
		return end - cur
	}
	return -1
}

// fallbackCapRecords bounds the initial record allocation when the
// stream length is unknown; the slice grows by append past it.
const fallbackCapRecords = 1 << 16

// recordCap clamps a header-declared record count into a safe initial
// slice capacity: at most what streamBytes bytes can encode, and at
// most fallbackCapRecords when the stream length is unknown.
func recordCap(declared uint64, hint int64) int {
	limit := declared
	if hint >= 0 {
		if most := uint64(hint) / minRecordBytes; most < limit {
			limit = most
		}
	} else if limit > fallbackCapRecords {
		limit = fallbackCapRecords
	}
	return int(limit)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Replayer is the in-memory implementation of BlockSource: the
// streamed and in-memory paths share one shape, and out-of-core
// readers are drop-in replacements. It never loops by itself; looping
// is the consumer's policy (see workload.FromBlocks), signalled by
// Rewind.
type Replayer struct {
	t   *Trace
	pos int
}

// NewReplayer builds a replayer over t. loop is ignored: the parameter
// survives only because the benchmark harness (bench/) still passes
// it, and goes with ReaderOptions and OpenFileParallel when it stops.
func NewReplayer(t *Trace, loop bool) *Replayer {
	return &Replayer{t: t}
}

// NextBlock returns every remaining record as one block (the whole
// trace is already resident, so the natural block is all of it), or
// nil at the end of the pass.
//
//lint:hotpath
func (r *Replayer) NextBlock() ([]Record, error) {
	if r.pos >= len(r.t.Records) {
		return nil, nil
	}
	blk := r.t.Records[r.pos:]
	r.pos = len(r.t.Records)
	return blk, nil
}

// Rewind implements BlockSource: rewind for another pass.
func (r *Replayer) Rewind() error {
	r.pos = 0
	return nil
}

// NumRecords implements BlockSource: the trace length is known.
func (r *Replayer) NumRecords() int64 { return int64(len(r.t.Records)) }

// NumInstructions implements BlockSource: the cached trace total.
func (r *Replayer) NumInstructions() int64 { return int64(r.t.Instructions()) }

// BlockSource yields a trace as consecutive blocks of records: the
// shape shared by the in-memory Replayer and the out-of-core Reader,
// threaded through both sweep engines (internal/simulate) and the
// machine replay path (machine.AttachBlocks) so "the trace fits in
// memory" is one implementation choice rather than an assumption.
type BlockSource interface {
	// NextBlock returns the next block of records, or nil at the end
	// of the current pass. The returned slice is only valid until the
	// next NextBlock or Rewind call.
	NextBlock() ([]Record, error)
	// Rewind restarts the source from the first record.
	Rewind() error
	// NumRecords returns the total record count, or -1 when the
	// source cannot know it without a full pass.
	NumRecords() int64
	// NumInstructions returns the total instruction count (each
	// record is NInstr + 1), or -1 when unknown.
	NumInstructions() int64
}

var _ BlockSource = (*Replayer)(nil)
