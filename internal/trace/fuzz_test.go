package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// fuzzSeedTrace is the tiny trace both seed encoders share.
func fuzzSeedTrace() *Trace {
	return &Trace{Records: []Record{
		{NInstr: 3, Addr: 0x1240, Write: true},
		{Addr: 64},
		{NInstr: 1, Addr: 0x40_0000},
	}}
}

// fuzzSeedsV2 builds the v2 seed corpus: a valid framed stream plus
// the malformed variants the decoder must reject without panicking —
// truncated frames, a corrupted checksum, a header whose record total
// disagrees with the frames, and trailing garbage past the
// terminator. Shared with gen_corpus.go's checked-in corpus.
func fuzzSeedsV2(fatal func(error)) [][]byte {
	var buf bytes.Buffer
	if err := fuzzSeedTrace().WriteV2Frames(&buf, 2); err != nil {
		fatal(err)
	}
	valid := buf.Bytes()

	truncated := valid[:len(valid)-3] // cuts into the last frame

	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-2] ^= 0x40 // flips a payload bit in the last frame

	// Header declares one record more than the frames hold.
	mismatch := append([]byte(nil), valid...)
	n := binary.LittleEndian.Uint64(mismatch[6:14])
	binary.LittleEndian.PutUint64(mismatch[6:14], n+1)

	trailing := append(append([]byte(nil), valid...), 0xCC)

	return [][]byte{valid, truncated, corrupt, mismatch, trailing, []byte("CPTR2\n")}
}

// FuzzRead asserts the decoders never panic or over-allocate on
// arbitrary input — they must either parse or return an error — and
// that the decode paths agree: the streaming Reader, decoding ahead
// and inline, must accept exactly the streams the in-memory Read
// accepts, with identical records. Run with `go test -fuzz FuzzRead ./internal/trace` for a
// live campaign; the seed corpus runs as a normal test.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := fuzzSeedTrace().Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("CPTR1\n"))
	f.Add([]byte("CPTR1\n\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte{})
	for _, seed := range fuzzSeedsV2(func(err error) { f.Fatal(err) }) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))

		// Cross-check oracle: stream the same bytes through the
		// out-of-core Reader in small blocks, once decoding ahead on
		// its goroutine and once inline under GOMAXPROCS(1). Both must
		// surface the same records, fail with the same error, and stop
		// at the same frame.
		streamed, sframes, serr := streamAll(t, data)
		prev := runtime.GOMAXPROCS(1)
		inline, iframes, ierr := streamAll(t, data)
		runtime.GOMAXPROCS(prev)
		if (serr == nil) != (ierr == nil) || serr != nil && serr.Error() != ierr.Error() {
			t.Fatalf("decode paths disagree: ahead err = %v, inline err = %v", serr, ierr)
		}
		if sframes != iframes {
			t.Fatalf("decode paths stop at different frames: ahead %d, inline %d", sframes, iframes)
		}
		if len(inline) != len(streamed) {
			t.Fatalf("inline decoded %d records, ahead %d (err %v)", len(inline), len(streamed), serr)
		}
		for i := range inline {
			if inline[i] != streamed[i] {
				t.Fatalf("record %d: inline %+v, ahead %+v", i, inline[i], streamed[i])
			}
		}

		if (err == nil) != (serr == nil) {
			t.Fatalf("decoders disagree: Read err = %v, Reader err = %v", err, serr)
		}
		if err != nil {
			return
		}
		if len(streamed) != tr.Len() {
			t.Fatalf("Reader decoded %d records, Read %d", len(streamed), tr.Len())
		}
		for i := range streamed {
			if streamed[i] != tr.Records[i] {
				t.Fatalf("record %d: streamed %+v, in-memory %+v", i, streamed[i], tr.Records[i])
			}
		}

		// Parsed traces must round-trip through both encoders.
		var v1 bytes.Buffer
		if err := tr.Write(&v1); err != nil {
			t.Fatalf("v1 re-encode of parsed trace failed: %v", err)
		}
		tr1, err := Read(&v1)
		if err != nil {
			t.Fatalf("v1 re-decode failed: %v", err)
		}
		if tr1.Len() != tr.Len() {
			t.Fatalf("v1 round trip changed length %d -> %d", tr.Len(), tr1.Len())
		}
		var v2 bytes.Buffer
		if err := tr.WriteV2(&v2); err != nil {
			t.Fatalf("v2 re-encode of parsed trace failed: %v", err)
		}
		tr2, err := Read(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatalf("v2 re-decode failed: %v", err)
		}
		if tr2.Len() != tr.Len() {
			t.Fatalf("v2 round trip changed length %d -> %d", tr.Len(), tr2.Len())
		}
	})
}

// streamAll drains data through a Reader in 4-record blocks and
// returns the records surfaced, Frames when the pass ended, and the
// error that ended it (nil at a clean end).
func streamAll(t *testing.T, data []byte) ([]Record, int64, error) {
	r, err := NewReader(bytes.NewReader(data), ReaderOptions{BlockRecords: 4})
	if err != nil {
		return nil, 0, err
	}
	var recs []Record
	for {
		blk, berr := r.NextBlock()
		if berr != nil {
			err = berr
			break
		}
		if len(blk) == 0 {
			break
		}
		recs = append(recs, blk...)
	}
	frames := r.Frames()
	if cerr := r.Close(); cerr != nil {
		t.Fatalf("Reader.Close: %v", cerr)
	}
	return recs, frames, err
}
