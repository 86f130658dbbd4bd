package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// drain replays one full pass through src, appending every record.
func drain(t *testing.T, src BlockSource) []Record {
	t.Helper()
	var out []Record
	for {
		blk, err := src.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if len(blk) == 0 {
			return out
		}
		out = append(out, blk...)
	}
}

func TestReaderMatchesRead(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		tr := testTrace(10000)
		for _, frameRecords := range []int{512, DefaultFrameRecords} {
			var buf bytes.Buffer
			if err := tr.WriteV2Frames(&buf, frameRecords); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			t.Run(fmt.Sprintf("frames=%d", frameRecords), func(t *testing.T) {
				r, err := NewReader(bytes.NewReader(data), ReaderOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := r.Close(); err != nil {
						t.Error(err)
					}
				}()
				recordsEqual(t, tr.Records, drain(t, r))
				// End of pass is sticky until Rewind.
				if blk, err := r.NextBlock(); err != nil || blk != nil {
					t.Fatalf("NextBlock after EOF = %v, %v", blk, err)
				}
				// A second pass must replay identically.
				if err := r.Rewind(); err != nil {
					t.Fatal(err)
				}
				recordsEqual(t, tr.Records, drain(t, r))
			})
		}
	})
}

func TestReaderHeaderTotals(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		tr := testTrace(777)
		var v2 bytes.Buffer
		if err := tr.WriteV2(&v2); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(v2.Bytes()), ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.NumRecords() != 777 || r.NumInstructions() != int64(tr.Instructions()) {
			t.Errorf("totals = %d records, %d instrs", r.NumRecords(), r.NumInstructions())
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}

		// Unknown totals read as -1, and the stream still replays in full.
		r, err = NewReader(bytes.NewReader(unpatchedStream(t, tr, 0)), ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.NumRecords() != -1 || r.NumInstructions() != -1 {
			t.Errorf("unpatched totals = %d records, %d instrs", r.NumRecords(), r.NumInstructions())
		}
		recordsEqual(t, tr.Records, drain(t, r))
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReaderSurfacesCorruption(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		tr := testTrace(2000)
		var buf bytes.Buffer
		if err := tr.WriteV2Frames(&buf, 128); err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), buf.Bytes()...)
		data[len(data)/2] ^= 0xFF // corrupt a mid-stream frame
		r, err := NewReader(bytes.NewReader(data), ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sawErr := false
		for {
			blk, err := r.NextBlock()
			if err != nil {
				sawErr = true
				break
			}
			if len(blk) == 0 {
				break
			}
		}
		if !sawErr {
			t.Error("corrupt stream replayed without error")
		}
		// The error is sticky.
		if _, err := r.NextBlock(); err == nil {
			t.Error("error not sticky")
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOpenFile(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		tr := testTrace(3000)
		path := filepath.Join(t.TempDir(), "t.cptr2")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		// Streaming capture through the incremental writer: *os.File is an
		// io.WriterAt, so Close patches the header totals in place.
		w, err := NewWriter(f, WriterOptions{FrameRecords: 256})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range tr.Records {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := OpenFile(path, ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.NumRecords() != 3000 || r.NumInstructions() != int64(tr.Instructions()) {
			t.Errorf("patched header totals = %d records, %d instrs", r.NumRecords(), r.NumInstructions())
		}
		recordsEqual(t, tr.Records, drain(t, r))
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// payloadOffsets returns where each frame's payload starts in a
// well-formed v2 stream.
func payloadOffsets(data []byte) []int {
	var payloads []int
	off := headerSize2
	for {
		count, n := binary.Uvarint(data[off:])
		if count == 0 {
			return payloads
		}
		plen, m := binary.Uvarint(data[off+n:])
		payloads = append(payloads, off+n+m+8)
		off += n + m + 8 + int(plen)
	}
}

// atProcs runs f as one subtest at GOMAXPROCS 1, where a Reader
// decodes inline, and one at GOMAXPROCS 4, where it decodes ahead, so
// a test takes both decode paths whatever the host's core count.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// waitGoroutines polls until runtime.NumGoroutine is back at base: a
// joined goroutine may still be unwinding when Close returns.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReaderLifecycle drives the Reader through every way a pass ends,
// with decode-ahead on (GOMAXPROCS 2) and off (GOMAXPROCS 1). Each
// case pins the error and the frame count where the pass stopped, that
// the error is sticky, and that Close leaves no goroutine behind. Run
// it under -race: the decode goroutine and the caller share the Reader.
func TestReaderLifecycle(t *testing.T) {
	const frameRecs = 64
	tr := testTrace(40 * frameRecs)
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, frameRecs); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	payloads := payloadOffsets(valid)
	nframes := int64(len(payloads))
	const k = 7 // the damaged frame

	corrupt := append([]byte(nil), valid...)
	corrupt[payloads[k]-1] ^= 0x01 // stored checksum of frame k
	cases := []struct {
		name       string
		data       []byte
		stopAfter  int  // blocks read before stopping early; -1 reads to the end
		rewind     bool // stop early with Rewind, then read a full pass
		wantErr    error
		wantFrames int64
		wantRecs   int
	}{
		{name: "full pass", data: valid, stopAfter: -1, wantFrames: nframes, wantRecs: tr.Len()},
		{name: "rewind mid-pass", data: valid, stopAfter: 3, rewind: true, wantFrames: nframes, wantRecs: tr.Len()},
		{name: "close mid-pass", data: valid, stopAfter: 3, wantFrames: 3, wantRecs: 3 * frameRecs},
		{name: "corrupt checksum", data: corrupt, stopAfter: -1, wantErr: errFrameChecksum, wantFrames: k, wantRecs: k * frameRecs},
		{name: "truncated payload", data: valid[:payloads[k]+5], stopAfter: -1, wantErr: io.ErrUnexpectedEOF, wantFrames: k, wantRecs: k * frameRecs},
		{name: "trailing bytes", data: append(append([]byte(nil), valid...), 0), stopAfter: -1, wantErr: errTrailing, wantFrames: nframes, wantRecs: tr.Len()},
	}
	for _, procs := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				base := runtime.NumGoroutine()
				r, err := NewReader(bytes.NewReader(tc.data), ReaderOptions{})
				if err != nil {
					t.Fatal(err)
				}
				read := func(limit int) (int, error) {
					n := 0
					for blocks := 0; limit < 0 || blocks < limit; blocks++ {
						blk, err := r.NextBlock()
						if err != nil || len(blk) == 0 {
							return n, err
						}
						n += len(blk)
					}
					return n, nil
				}
				n, err := read(tc.stopAfter)
				if tc.stopAfter >= 0 && r.running != (procs > 1) {
					t.Fatalf("decode goroutine running mid-pass = %v at GOMAXPROCS %d", r.running, procs)
				}
				if tc.rewind {
					if err := r.Rewind(); err != nil {
						t.Fatal(err)
					}
					n, err = read(-1)
				}
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("pass ended with %v, want %v", err, tc.wantErr)
				}
				if n != tc.wantRecs || r.frames != tc.wantFrames {
					t.Fatalf("stopped after %d records, %d frames; want %d, %d", n, r.frames, tc.wantRecs, tc.wantFrames)
				}
				if tc.wantErr != nil {
					if _, again := r.NextBlock(); again != err || r.frames != tc.wantFrames {
						t.Fatalf("error not sticky: %v, %d frames", again, r.frames)
					}
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// TestReaderSteadyStateAllocFree is the 0-alloc gate: once the block
// buffer has grown to the stream's frame size, NextBlock must not
// allocate.
func TestReaderSteadyStateAllocFree(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		tr := testTrace(8 * 1024)
		for _, frameRecords := range []int{256, 4096} {
			var buf bytes.Buffer
			if err := tr.WriteV2Frames(&buf, frameRecords); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("frames=%d", frameRecords)
			r, err := NewReader(bytes.NewReader(buf.Bytes()), ReaderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Warm: one full pass grows payload and record buffers.
			if got := drain(t, r); len(got) != tr.Len() {
				t.Fatalf("%s: warm pass decoded %d records", name, len(got))
			}
			if err := r.Rewind(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(8, func() {
				blk, err := r.NextBlock()
				if err != nil {
					t.Fatal(err)
				}
				if len(blk) == 0 {
					if err := r.Rewind(); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s: steady-state NextBlock allocates %v times; want 0", name, allocs)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestReaderRewindAllocs pins what a further pass costs: Rewind seeks
// and re-reads the header into the Reader's existing buffers, so a
// multi-pass replay (warm pass + measured pass per replica group)
// allocates per Reader, not per pass.
func TestReaderRewindAllocs(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		tr := testTrace(2 * 1024)
		var buf bytes.Buffer
		if err := tr.WriteV2Frames(&buf, 256); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()), ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := r.Close(); err != nil {
				t.Error(err)
			}
		}()
		if got := drain(t, r); len(got) != tr.Len() {
			t.Fatalf("warm pass decoded %d records", len(got))
		}
		allocs := testing.AllocsPerRun(8, func() {
			if err := r.Rewind(); err != nil {
				t.Fatal(err)
			}
			for {
				blk, err := r.NextBlock()
				if err != nil {
					t.Fatal(err)
				}
				if len(blk) == 0 {
					break
				}
			}
		})
		if allocs > 3 {
			t.Errorf("Rewind + full pass allocates %v times; want <= 3 (the header scratch, nothing per block)", allocs)
		}
	})
}

// writeFile writes tr to a fresh v2 file of frameRecords-record frames
// under dir and returns its path.
func writeFile(t *testing.T, dir string, tr *Trace, frameRecords int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("t%d.cptr2", frameRecords))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteV2Frames(f, frameRecords); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReaderUseAfterClose pins what Close leaves behind: NextBlock and
// Rewind on a closed Reader fail with an error, at once and every time,
// and never reach the buffers Close handed on — a Reader opened after
// it, which may hold them now, reads its own stream undisturbed.
func TestReaderUseAfterClose(t *testing.T) {
	dir := t.TempDir()
	a, b := testTrace(3000), testTrace(5000)
	pa, pb := writeFile(t, dir, a, 256), writeFile(t, dir, b, 512)
	atProcs(t, func(t *testing.T) {
		old, err := OpenFile(pa, ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := old.NextBlock(); err != nil { // mid-pass
			t.Fatal(err)
		}
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		next, err := OpenFile(pb, ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer next.Close()
		first, err := next.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		keep := append([]Record(nil), first...)
		for i := 0; i < 2; i++ {
			if blk, err := old.NextBlock(); err == nil || blk != nil {
				t.Fatalf("NextBlock after Close = %d records, %v; want an error", len(blk), err)
			}
			if err := old.Rewind(); err == nil {
				t.Fatal("Rewind after Close succeeded")
			}
		}
		if err := old.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		recordsEqual(t, keep, first)
		recordsEqual(t, b.Records, append(keep, drain(t, next)...))
	})
}

// TestReadersShareSpareConcurrently opens, reads and closes Readers
// of two different files from several goroutines at once, so the spare
// buffers pass between Readers running side by side (and, at one
// goroutine's GC, are dropped): every pass must read its own file's
// records. Run it under -race.
func TestReadersShareSpareConcurrently(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		dir := t.TempDir()
		trs := []*Trace{testTrace(3000), testTrace(5000)}
		paths := []string{writeFile(t, dir, trs[0], 256), writeFile(t, dir, trs[1], 1024)}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					k := (g + i) % 2
					r, err := OpenFile(paths[k], ReaderOptions{})
					if err != nil {
						t.Error(err)
						return
					}
					got, err := drainAll(r)
					if cerr := r.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						t.Error(err)
						return
					}
					if len(got) != len(trs[k].Records) {
						t.Errorf("goroutine %d pass %d: %d records, want %d", g, i, len(got), len(trs[k].Records))
						return
					}
					for j := range got {
						if got[j] != trs[k].Records[j] {
							t.Errorf("goroutine %d pass %d: record %d = %+v, want %+v", g, i, j, got[j], trs[k].Records[j])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestReaderOpenAllocs is the allocation gate on readerSpare: once a
// Reader has been opened and closed, opening a file, reading one pass
// and closing it again reuses that Reader's bufio window and block
// buffers (about a megabyte) and allocates only the Reader itself and
// the file handle. At one P and at four, so on the decode-ahead path
// too.
func TestReaderOpenAllocs(t *testing.T) {
	tr := testTrace(2 * DefaultFrameRecords)
	path := writeFile(t, t.TempDir(), tr, DefaultFrameRecords)
	pass := func() {
		r, err := OpenFile(path, ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			blk, err := r.NextBlock()
			if err != nil {
				t.Fatal(err)
			}
			if len(blk) == 0 {
				break
			}
			n += len(blk)
		}
		if n != tr.Len() {
			t.Fatalf("pass decoded %d records", n)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A collection between the warm pass and the measured one runs the
	// spare's sentinel, which empties the slot. So collect first, wait
	// for the sentinel's finalizer, and hold the collector off until the
	// measured pass ends.
	gcPercent := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gcPercent) })
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		pass() // fill the spare, so that the finalizer's run shows
		runtime.GC()
		for deadline := time.Now().Add(10 * time.Second); readerSpare.Load() != nil; {
			if time.Now().After(deadline) {
				t.Fatal("the spare's sentinel did not run after a collection")
			}
			runtime.Gosched()
		}
		pass() // warm the spare
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("GOMAXPROCS %d: warmed open + pass + close allocated %d KB, want under 64 KB", procs, got>>10)
		}
	}
}

// TestReplayerBlockSource pins the in-memory implementation of the
// interface the streamed reader drops in for.
func TestReplayerBlockSource(t *testing.T) {
	tr := testTrace(100)
	r := NewReplayer(tr, false)
	if r.NumRecords() != 100 || r.NumInstructions() != int64(tr.Instructions()) {
		t.Errorf("replayer totals = %d, %d", r.NumRecords(), r.NumInstructions())
	}
	recordsEqual(t, tr.Records, drain(t, r))
	if blk, err := r.NextBlock(); err != nil || blk != nil {
		t.Fatalf("NextBlock at end = %v, %v", blk, err)
	}
	if err := r.Rewind(); err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, tr.Records, drain(t, r))
}
