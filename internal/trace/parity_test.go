package trace

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// decodeMode is one way a Reader pass can decode: inline, or ahead of
// a consumer of a given speed.
type decodeMode struct {
	name  string
	procs int
	work  func() // the consumer's work after each block
}

// decodeModes are the Reader's three decode modes. The eager consumer
// asks for its next block at once, so it outruns decode and decodes
// blocks itself; the sleepy one sleeps after every block, so the
// goroutine has decoded its next block before it asks.
var decodeModes = []decodeMode{
	{"inline", 1, func() {}},
	{"eager", 2, func() {}},
	{"sleepy", 2, func() { time.Sleep(100 * time.Microsecond) }},
}

// modePass is what one Reader pass surfaced.
type modePass struct {
	openErr    error
	blocks     [][]Record
	frames     int64
	err        error
	selfDecode int64
}

// runMode drains one pass over data in mode m.
func runMode(t *testing.T, data []byte, m decodeMode) modePass {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(m.procs))
	r, err := NewReader(bytes.NewReader(data), ReaderOptions{})
	if err != nil {
		return modePass{openErr: err}
	}
	var res modePass
	for {
		blk, err := r.NextBlock()
		if err != nil || len(blk) == 0 {
			res.err = err
			break
		}
		res.blocks = append(res.blocks, append([]Record(nil), blk...))
		m.work()
	}
	res.frames, res.selfDecode = r.frames, r.selfDecode
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// readVerdict is what trace.Read says of a stream, in the Reader's
// terms: the records of an accepted stream, or the frame index and
// sentinel of the first error (a header-total mismatch is the Reader's
// errHeaderMismatch after every frame; any other error is the
// constructor's).
type readVerdict struct {
	recs    []Record
	frames  int64
	err     error
	openErr error
}

func readReference(t *testing.T, data []byte) readVerdict {
	t.Helper()
	st, _ := Stat(bytes.NewReader(data))
	tr, err := Read(bytes.NewReader(data))
	switch {
	case err == nil:
		return readVerdict{recs: tr.Records, frames: st.Frames}
	case strings.HasPrefix(err.Error(), "trace: frame "):
		var frame int64
		if _, serr := fmt.Sscanf(err.Error(), "trace: frame %d:", &frame); serr != nil {
			t.Fatalf("unparsable Read error %q: %v", err, serr)
		}
		return readVerdict{frames: frame, err: errors.Unwrap(err)}
	case strings.HasPrefix(err.Error(), "trace: header declares"):
		return readVerdict{frames: st.Frames, err: errHeaderMismatch}
	default:
		return readVerdict{openErr: err}
	}
}

// parityStreams is every FuzzRead seed and a set of corrupt 128-record
// frame streams, by name.
func parityStreams(t *testing.T) map[string][]byte {
	streams := map[string][]byte{"empty": nil}
	for _, seed := range fuzzSeeds(func(err error) { t.Fatal(err) }) {
		streams[seed.name] = seed.data
	}
	var buf bytes.Buffer
	if err := testTrace(4096).WriteV2Frames(&buf, 128); err != nil { // 32 frames
		t.Fatal(err)
	}
	valid := buf.Bytes()
	payloads := payloadOffsets(valid)
	for name, mutate := range map[string]func([]byte) []byte{
		"clean":                 func(d []byte) []byte { return d },
		"torn-mid-frame":        func(d []byte) []byte { return d[:payloads[20]+9] },
		"torn-in-header":        func(d []byte) []byte { return d[:len(magic2)+7] },
		"corrupt-payload-mid":   func(d []byte) []byte { d[payloads[16]+5] ^= 0xFF; return d },
		"corrupt-payload-last":  func(d []byte) []byte { d[len(d)-3] ^= 0x01; return d },
		"corrupt-checksum-2":    func(d []byte) []byte { d[payloads[2]-1] ^= 0x04; return d },
		"corrupt-checksum-last": func(d []byte) []byte { d[payloads[31]-1] ^= 0x04; return d },
		"trailing":              func(d []byte) []byte { return append(d, 0xAB) },
		"header-mismatch":       func(d []byte) []byte { d[len(magic2)] ^= 0x01; return d },
	} {
		streams[name] = mutate(append([]byte(nil), valid...))
	}
	return streams
}

// TestDecodeParityEveryMode holds the Reader in each decode mode to
// trace.Read on every FuzzRead seed and corrupt stream: the same
// records, the same Frames count where the pass ended and the same
// first error. The three modes must also surface the same blocks.
func TestDecodeParityEveryMode(t *testing.T) {
	for name, data := range parityStreams(t) {
		t.Run(name, func(t *testing.T) {
			want := readReference(t, data)
			var first modePass
			for i, m := range decodeModes {
				got := runMode(t, data, m)
				if want.openErr != nil || got.openErr != nil {
					if want.openErr == nil || got.openErr == nil || got.openErr.Error() != want.openErr.Error() {
						t.Fatalf("%s: open error %v, Read's %v", m.name, got.openErr, want.openErr)
					}
					continue
				}
				if got.err != want.err || got.frames != want.frames {
					t.Fatalf("%s: pass ended with %v after %d frames; Read: %v at frame %d",
						m.name, got.err, got.frames, want.err, want.frames)
				}
				if want.err == nil {
					var recs []Record
					for _, blk := range got.blocks {
						recs = append(recs, blk...)
					}
					recordsEqual(t, want.recs, recs)
				}
				if i == 0 {
					first = got
					continue
				}
				if len(got.blocks) != len(first.blocks) {
					t.Fatalf("%s: %d blocks, %s %d", m.name, len(got.blocks), decodeModes[0].name, len(first.blocks))
				}
				for j := range first.blocks {
					recordsEqual(t, first.blocks[j], got.blocks[j])
				}
			}
		})
	}
}

// TestDecodeAheadSharesDecode pins that the eager consumer decodes:
// over a clean pass, some frames are decoded by the consumer and some
// by the goroutine (every surfaced frame was decoded by one of them).
// Which side wins a frame depends on the scheduler, so the test allows
// a few passes for both to show up.
func TestDecodeAheadSharesDecode(t *testing.T) {
	var buf bytes.Buffer
	if err := testTrace(64*2048).WriteV2Frames(&buf, 2048); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	r, err := NewReader(bytes.NewReader(buf.Bytes()), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var self, frames int64
	for pass := 0; pass < 50; pass++ {
		for {
			blk, err := r.NextBlock()
			if err != nil {
				t.Fatal(err)
			}
			if len(blk) == 0 {
				break
			}
		}
		self, frames = r.selfDecode, r.frames
		if frames != 64 {
			t.Fatalf("pass surfaced %d frames, want 64", frames)
		}
		if self > 0 && self < frames {
			return
		}
		if err := r.Rewind(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("consumer decoded %d of %d frames on the last pass, all or none on every pass; want some but not all", self, frames)
}
