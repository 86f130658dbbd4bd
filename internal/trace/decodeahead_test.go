package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// drainAll replays a full pass, returning the records and the error
// that ended the pass (nil for a clean EOF).
func drainAll(src BlockSource) ([]Record, error) {
	var out []Record
	for {
		blk, err := src.NextBlock()
		if err != nil {
			return out, err
		}
		if len(blk) == 0 {
			return out, nil
		}
		out = append(out, blk...)
	}
}

// passResult is what one Reader pass over a stream observed.
type passResult struct {
	openErr error
	inline  bool
	recs    []Record
	err     error
	frames  int64
	sticky  error // NextBlock's error after the pass ended
}

// readPass opens data under GOMAXPROCS(procs), drains one pass, reads
// once more past the end and closes. GOMAXPROCS stays pinned for the
// whole pass because the Reader picks its decode path on each header
// read.
func readPass(t *testing.T, data []byte, procs int) passResult {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r, err := NewReader(bytes.NewReader(data), ReaderOptions{})
	if err != nil {
		return passResult{openErr: err}
	}
	res := passResult{inline: r.inline}
	res.recs, res.err = drainAll(r)
	res.frames = r.frames
	_, res.sticky = r.NextBlock()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDecodeAheadMatchesInline checks the decode-ahead path against the
// inline path on well-formed v2 streams, across frame sizes from one
// record per frame to the whole trace in one frame. Both passes after a
// Rewind must repeat the first.
func TestDecodeAheadMatchesInline(t *testing.T) {
	tr := testTrace(20000)
	for _, frameRecords := range []int{1, 7, 64, 512, 4096, 20000} {
		var buf bytes.Buffer
		if err := tr.WriteV2Frames(&buf, frameRecords); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		t.Run(fmt.Sprintf("frames=%d", frameRecords), func(t *testing.T) {
			inline := readPass(t, data, 1)
			ahead := readPass(t, data, 2)
			if inline.openErr != nil || ahead.openErr != nil {
				t.Fatalf("open: inline %v, ahead %v", inline.openErr, ahead.openErr)
			}
			if !inline.inline || ahead.inline {
				t.Fatalf("decode path: inline=%v at GOMAXPROCS 1, inline=%v at GOMAXPROCS 2", inline.inline, ahead.inline)
			}
			if inline.err != nil || ahead.err != nil || inline.sticky != nil || ahead.sticky != nil {
				t.Fatalf("clean stream failed: inline %v/%v, ahead %v/%v", inline.err, inline.sticky, ahead.err, ahead.sticky)
			}
			recordsEqual(t, tr.Records, inline.recs)
			recordsEqual(t, tr.Records, ahead.recs)
			if inline.frames != ahead.frames {
				t.Fatalf("frames: inline %d, ahead %d", inline.frames, ahead.frames)
			}

			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			r, err := NewReader(bytes.NewReader(data), ReaderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := r.Close(); err != nil {
					t.Error(err)
				}
			}()
			if r.NumRecords() != int64(tr.Len()) || r.NumInstructions() != int64(tr.Instructions()) {
				t.Fatalf("totals = %d records, %d instrs", r.NumRecords(), r.NumInstructions())
			}
			for pass := 0; pass < 2; pass++ {
				recordsEqual(t, tr.Records, drain(t, r))
				if blk, err := r.NextBlock(); err != nil || blk != nil {
					t.Fatalf("NextBlock after EOF = %v, %v", blk, err)
				}
				if err := r.Rewind(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestReaderDecodesInline pins when no goroutine is started: at
// GOMAXPROCS 1, whether or not the header totals are known. Each
// stream must still replay the trace, and again after a Rewind.
func TestReaderDecodesInline(t *testing.T) {
	tr := testTrace(5000)
	var patched bytes.Buffer
	if err := tr.WriteV2Frames(&patched, 512); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		data            []byte
		records, instrs int64
	}{
		{"patched", patched.Bytes(), 5000, int64(tr.Instructions())},
		{"unpatched", unpatchedStream(t, tr, 512), -1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			r, err := NewReader(bytes.NewReader(tc.data), ReaderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !r.inline {
				t.Fatal("reader chose decode-ahead")
			}
			if r.NumRecords() != tc.records || r.NumInstructions() != tc.instrs {
				t.Fatalf("totals = %d, %d", r.NumRecords(), r.NumInstructions())
			}
			for pass := 0; pass < 2; pass++ {
				recordsEqual(t, tr.Records, drain(t, r))
				if r.running {
					t.Fatal("inline reader started a decode goroutine")
				}
				if r.frames != (5000+511)/512 {
					t.Fatalf("frames = %d, want %d", r.frames, (5000+511)/512)
				}
				if err := r.Rewind(); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDecodeAheadErrorParity is the torn/corrupt-frame gate: for every
// malformed stream below, decode-ahead must surface the same error at
// the same stream offset (frame index, records delivered) as the inline
// path. A frame the goroutine decoded past the failure point must stay
// invisible.
func TestDecodeAheadErrorParity(t *testing.T) {
	tr := testTrace(4096)
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, 128); err != nil { // 32 frames
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"torn-mid-frame", func(d []byte) []byte { return d[:len(d)*2/3] }},
		{"torn-in-header", func(d []byte) []byte { return d[:len(magic2)+7] }},
		{"corrupt-payload-mid", func(d []byte) []byte { d[len(d)/2] ^= 0xFF; return d }},
		{"corrupt-payload-early", func(d []byte) []byte { d[len(magic2)+16+12+40] ^= 0x20; return d }},
		{"corrupt-payload-last", func(d []byte) []byte { d[len(d)-3] ^= 0x01; return d }},
		{"trailing", func(d []byte) []byte { return append(d, 0xAB) }},
		{"header-mismatch", func(d []byte) []byte { d[len(magic2)] ^= 0x01; return d }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			inline := readPass(t, data, 1)
			ahead := readPass(t, data, 2)
			if (inline.openErr == nil) != (ahead.openErr == nil) {
				t.Fatalf("constructor disagreement: inline %v, ahead %v", inline.openErr, ahead.openErr)
			}
			if inline.openErr != nil {
				if inline.openErr.Error() != ahead.openErr.Error() {
					t.Fatalf("constructor errors differ: inline %q, ahead %q", inline.openErr, ahead.openErr)
				}
				return
			}
			if inline.err == nil || ahead.err == nil {
				t.Fatalf("malformed stream passed: inline %v, ahead %v", inline.err, ahead.err)
			}
			if inline.err.Error() != ahead.err.Error() {
				t.Fatalf("errors differ: inline %q, ahead %q", inline.err, ahead.err)
			}
			if len(inline.recs) != len(ahead.recs) {
				t.Fatalf("records before failure differ: inline %d, ahead %d", len(inline.recs), len(ahead.recs))
			}
			recordsEqual(t, inline.recs, ahead.recs)
			if inline.frames != ahead.frames {
				t.Fatalf("failure offset differs: inline frame %d, ahead frame %d", inline.frames, ahead.frames)
			}
			if inline.sticky != inline.err || ahead.sticky != ahead.err {
				t.Fatalf("error not sticky: inline %v, ahead %v", inline.sticky, ahead.sticky)
			}
		})
	}
}

// TestDecodeAheadCorruptChecksumField flips a bit in a stored checksum
// (not the payload). The pass must fail at exactly that frame on both
// paths, even though the frame after it, which decode-ahead may have
// started on, chains from the corrupt value and fails too.
func TestDecodeAheadCorruptChecksumField(t *testing.T) {
	tr := testTrace(1024)
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, 128); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[payloadOffsets(corrupt)[2]-1] ^= 0x04 // third frame's stored checksum

	inline := readPass(t, corrupt, 1)
	ahead := readPass(t, corrupt, 2)
	if inline.err != errFrameChecksum || ahead.err != errFrameChecksum {
		t.Fatalf("want checksum mismatch from both, got inline %v, ahead %v", inline.err, ahead.err)
	}
	if inline.frames != 2 || ahead.frames != 2 {
		t.Fatalf("failure offset: inline frame %d, ahead frame %d, want 2", inline.frames, ahead.frames)
	}
	recordsEqual(t, tr.Records[:2*128], ahead.recs)
	recordsEqual(t, inline.recs, ahead.recs)
}

// blockPass is what one Reader pass surfaced, block by block.
type blockPass struct {
	blocks [][]Record
	frames int64
	err    error
	ahead  int // most decoded buffers seen waiting for the consumer
}

// readBlocks drains one pass under GOMAXPROCS(procs), keeping each
// block's records and calling work after each block.
func readBlocks(t *testing.T, data []byte, procs int, work func()) blockPass {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r, err := NewReader(bytes.NewReader(data), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var res blockPass
	for {
		blk, err := r.NextBlock()
		if err != nil || len(blk) == 0 {
			res.err = err
			break
		}
		res.blocks = append(res.blocks, append([]Record(nil), blk...))
		work()
		if !r.inline {
			res.ahead = max(res.ahead, len(r.out))
		}
	}
	res.frames = r.frames
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReaderPipelineConsumerSpeeds runs decode-ahead under a consumer
// slower than decode (the decoder fills every spare buffer and parks)
// and one faster (the consumer waits on every frame). Both must surface
// the same blocks, Frames and error as inline decode at GOMAXPROCS 1,
// on a clean stream and on streams that fail mid-pass.
func TestReaderPipelineConsumerSpeeds(t *testing.T) {
	const frameRecs = 64
	tr := testTrace(48 * frameRecs)
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, frameRecs); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	payloads := payloadOffsets(valid)
	corrupt := append([]byte(nil), valid...)
	corrupt[payloads[20]-1] ^= 0x01 // stored checksum of frame 20
	streams := map[string][]byte{
		"clean":     valid,
		"corrupt":   corrupt,
		"truncated": valid[:payloads[30]+9],
	}
	consumers := map[string]func(){
		"slow": func() { time.Sleep(200 * time.Microsecond) },
		"fast": func() {},
	}
	for sname, data := range streams {
		want := readBlocks(t, data, 1, func() {})
		for cname, work := range consumers {
			t.Run(sname+"/"+cname, func(t *testing.T) {
				got := readBlocks(t, data, 2, work)
				if got.err != want.err || got.frames != want.frames || len(got.blocks) != len(want.blocks) {
					t.Fatalf("pass ended with %v after %d frames, %d blocks; inline %v, %d, %d",
						got.err, got.frames, len(got.blocks), want.err, want.frames, len(want.blocks))
				}
				for i := range want.blocks {
					recordsEqual(t, want.blocks[i], got.blocks[i])
				}
				if cname == "slow" && sname == "clean" && got.ahead != 3 {
					t.Errorf("slow consumer saw at most %d frames decoded ahead, want 3", got.ahead)
				}
			})
		}
	}
}

// TestReaderStopsWithBuffersInFlight calls Close, and Rewind, once the
// decoder has filled every buffer the consumer does not hold. Each must
// join the decode goroutine (the goroutine count returns to its
// baseline), and a pass after the Rewind must replay the whole trace.
func TestReaderStopsWithBuffersInFlight(t *testing.T) {
	tr := testTrace(64 * 64)
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, 64); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, rewind := range []bool{false, true} {
		t.Run(fmt.Sprintf("rewind=%v", rewind), func(t *testing.T) {
			base := runtime.NumGoroutine()
			r, err := NewReader(bytes.NewReader(buf.Bytes()), ReaderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if blk, err := r.NextBlock(); err != nil || len(blk) == 0 {
				t.Fatalf("first block: %d records, %v", len(blk), err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for len(r.out) < len(r.bufs)-1 {
				if time.Now().After(deadline) {
					t.Fatalf("decoder filled %d of %d spare buffers", len(r.out), len(r.bufs)-1)
				}
				time.Sleep(100 * time.Microsecond)
			}
			if rewind {
				if err := r.Rewind(); err != nil {
					t.Fatal(err)
				}
				waitGoroutines(t, base)
				recordsEqual(t, tr.Records, drain(t, r))
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
		})
	}
}
