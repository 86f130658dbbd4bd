package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// fuzzSeedTrace is the tiny trace the seed streams encode.
func fuzzSeedTrace() *Trace {
	return &Trace{Records: []Record{
		{NInstr: 3, Addr: 0x1240, Write: true},
		{Addr: 64},
		{NInstr: 1, Addr: 0x40_0000},
	}}
}

// fuzzSeed is one named FuzzRead seed.
type fuzzSeed struct {
	name string
	data []byte
}

// v1Seed is a valid stream in the retired flat v1 format (magic CPTR1,
// a record count, then one global delta chain): every decoder must
// refuse it with an error.
const v1Seed = "CPTR1\n\x03\a\x92\x01\x00\x00\x8f\x01\x00\x02\xfe\xff\a\x00"

// fuzzSeeds builds the seed corpus: a valid framed stream plus the
// malformed variants the decoders must reject without panicking —
// truncated frames, a corrupted checksum, a header whose record total
// disagrees with the frames, trailing garbage past the terminator, a
// bare magic, a v1 stream, and two payloads that are malformed behind
// a valid checksum (an overlong varint, an offset byte of 64), which a
// byte-flipping fuzzer cannot reach because the checksum fails first.
func fuzzSeeds(fatal func(error)) []fuzzSeed {
	var buf bytes.Buffer
	if err := fuzzSeedTrace().WriteV2Frames(&buf, 2); err != nil {
		fatal(err)
	}
	valid := buf.Bytes()

	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-2] ^= 0x40 // flips a payload bit in the last frame

	// Header declares one record more than the frames hold.
	mismatch := append([]byte(nil), valid...)
	n := binary.LittleEndian.Uint64(mismatch[6:14])
	binary.LittleEndian.PutUint64(mismatch[6:14], n+1)

	// Ten continuation bytes overflow a uvarint; the frame is long
	// enough for decodeRecords' fast region.
	overlong := append(bytes.Repeat([]byte{0xff}, 10), make([]byte, 11)...)

	return []fuzzSeed{
		{"seed-v2-valid", valid},
		{"seed-v2-frame-truncated", valid[:len(valid)-3]}, // cuts into the last frame
		{"seed-v2-corrupt-checksum", corrupt},
		{"seed-v2-count-mismatch", mismatch},
		{"seed-v2-trailing", append(append([]byte(nil), valid...), 0xCC)},
		{"seed-v2-header-only", []byte(magic2)},
		{"seed-v2-overlong-varint", badFrameStream(overlong)},
		{"seed-v2-offset-range", badFrameStream([]byte{2, 2, 64})},
		{"seed-v1-rejected", []byte(v1Seed)},
	}
}

// badFrameStream is a stream of one valid one-record frame, then a
// one-record frame carrying payload under a correctly chained checksum,
// then the terminator; the header totals are unknown.
func badFrameStream(payload []byte) []byte {
	b := []byte(magic2)
	b = binary.LittleEndian.AppendUint64(b, unknownCount)
	b = binary.LittleEndian.AppendUint64(b, unknownCount)
	good, _ := appendRecord(nil, 0, Record{NInstr: 3, Addr: 0x1240})
	var chk uint64
	for _, p := range [][]byte{good, payload} {
		chk = frameChecksum(chk, p)
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = binary.LittleEndian.AppendUint64(b, chk)
		b = append(b, p...)
	}
	return append(b, 0)
}

// TestSeedVerdicts runs each FuzzRead seed as a named subtest: the
// valid stream must decode to fuzzSeedTrace under Read and the
// streaming Reader, and every malformed variant must be refused by
// both. FuzzRead itself only checks that the decoders agree, so a
// decoder that began to accept a malformed seed would pass it.
func TestSeedVerdicts(t *testing.T) {
	want := fuzzSeedTrace().Records
	for _, seed := range fuzzSeeds(func(err error) { t.Fatal(err) }) {
		t.Run(seed.name, func(t *testing.T) {
			tr, err := Read(bytes.NewReader(seed.data))
			streamed, _, serr := streamAll(t, seed.data)
			if seed.name != "seed-v2-valid" {
				if err == nil || serr == nil {
					t.Fatalf("malformed seed accepted: Read err = %v, Reader err = %v", err, serr)
				}
				return
			}
			if err != nil || serr != nil {
				t.Fatalf("valid seed refused: Read err = %v, Reader err = %v", err, serr)
			}
			if tr.Len() != len(want) || len(streamed) != len(want) {
				t.Fatalf("decoded %d (Read) and %d (Reader) records, want %d", tr.Len(), len(streamed), len(want))
			}
			for i := range want {
				if tr.Records[i] != want[i] || streamed[i] != want[i] {
					t.Errorf("record %d: Read %+v, Reader %+v, want %+v", i, tr.Records[i], streamed[i], want[i])
				}
			}
		})
	}
}

// TestPayloadErrorsBehindValidChecksum runs the two seeds whose bad
// frame passes its checksum: Read, the inline Reader and the
// decode-ahead Reader must each fail with the payload's own sentinel,
// after surfacing the one good frame before it.
func TestPayloadErrorsBehindValidChecksum(t *testing.T) {
	seeds := make(map[string][]byte)
	for _, seed := range fuzzSeeds(func(err error) { t.Fatal(err) }) {
		seeds[seed.name] = seed.data
	}
	for _, tc := range []struct {
		seed string
		want error
	}{
		{"seed-v2-overlong-varint", errVarint},
		{"seed-v2-offset-range", errOffsetRange},
	} {
		t.Run(tc.seed, func(t *testing.T) {
			data := seeds[tc.seed]
			if _, err := Read(bytes.NewReader(data)); !errors.Is(err, tc.want) || !strings.HasPrefix(err.Error(), "trace: frame 1: ") {
				t.Errorf("Read: %v, want %v at frame 1", err, tc.want)
			}
			for _, procs := range []int{1, 2} {
				res := readPass(t, data, procs)
				if res.openErr != nil || res.inline != (procs == 1) {
					t.Fatalf("GOMAXPROCS %d: open %v, inline %v", procs, res.openErr, res.inline)
				}
				if !errors.Is(res.err, tc.want) || res.frames != 1 || len(res.recs) != 1 {
					t.Errorf("GOMAXPROCS %d: pass ended with %v after %d frames, %d records; want %v after 1, 1",
						procs, res.err, res.frames, len(res.recs), tc.want)
				}
			}
		})
	}
}

// FuzzRead asserts the decoders never panic or over-allocate on
// arbitrary input — they must either parse or return an error — and
// that the decode paths agree: the streaming Reader, decoding ahead
// and inline, must accept exactly the streams the in-memory Read
// accepts, with identical records. Run with `go test -fuzz FuzzRead ./internal/trace` for a
// live campaign; the f.Add seeds and any saved input under
// testdata/fuzz/FuzzRead run as a normal test.
func FuzzRead(f *testing.F) {
	f.Add([]byte{})
	for _, seed := range fuzzSeeds(func(err error) { f.Fatal(err) }) {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))

		// Cross-check oracle: stream the same bytes through the
		// out-of-core Reader frame by frame, once decoding ahead on
		// its goroutine under GOMAXPROCS(2) and once inline under
		// GOMAXPROCS(1), whatever the host's core count. Both must
		// surface the same records, fail with the same error, and stop
		// at the same frame.
		prev := runtime.GOMAXPROCS(2)
		streamed, sframes, serr := streamAll(t, data)
		runtime.GOMAXPROCS(1)
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

		// Parsed traces must round-trip through the encoder.
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

// streamAll drains data through a Reader and returns the records
// surfaced, Frames when the pass ended, and the error that ended it
// (nil at a clean end).
func streamAll(t *testing.T, data []byte) ([]Record, int64, error) {
	r, err := NewReader(bytes.NewReader(data), ReaderOptions{})
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
	frames := r.frames
	if cerr := r.Close(); cerr != nil {
		t.Fatalf("Reader.Close: %v", cerr)
	}
	return recs, frames, err
}
