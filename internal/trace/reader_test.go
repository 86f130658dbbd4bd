package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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
	tr := testTrace(10000)
	encoders := map[string]func() []byte{
		"v1": func() []byte {
			var buf bytes.Buffer
			if err := tr.Write(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		"v2": func() []byte {
			var buf bytes.Buffer
			if err := tr.WriteV2Frames(&buf, 512); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
	}
	for name, enc := range encoders {
		data := enc()
		t.Run(name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(data), ReaderOptions{BlockRecords: 512})
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
}

func TestReaderHeaderTotals(t *testing.T) {
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
		t.Errorf("v2 totals = %d records, %d instrs", r.NumRecords(), r.NumInstructions())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	var v1 bytes.Buffer
	if err := tr.Write(&v1); err != nil {
		t.Fatal(err)
	}
	r, err = NewReader(bytes.NewReader(v1.Bytes()), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRecords() != 777 || r.NumInstructions() != -1 {
		t.Errorf("v1 totals = %d records, %d instrs", r.NumRecords(), r.NumInstructions())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderSurfacesCorruption(t *testing.T) {
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
}

func TestOpenFile(t *testing.T) {
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
}

// TestReaderSteadyStateAllocFree is the 0-alloc gate: once the block
// buffer has grown to the stream's frame size, NextBlock must not
// allocate.
func TestReaderSteadyStateAllocFree(t *testing.T) {
	tr := testTrace(8 * 1024)
	var v2 bytes.Buffer
	if err := tr.WriteV2Frames(&v2, 256); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := tr.Write(&v1); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v2": v2.Bytes(), "v1": v1.Bytes()} {
		r, err := NewReader(bytes.NewReader(data), ReaderOptions{BlockRecords: 256})
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
}

// TestReaderRewindAllocs pins what a further pass costs: Rewind seeks
// and re-reads the header into the Reader's existing buffers, so a
// multi-pass replay (warm pass + measured pass per replica group)
// allocates per Reader, not per pass.
func TestReaderRewindAllocs(t *testing.T) {
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
	// Mixed-mode: consume two records, then take the rest as a block.
	if err := r.Rewind(); err != nil {
		t.Fatal(err)
	}
	r.NextRecord()
	r.NextRecord()
	blk, err := r.NextBlock()
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, tr.Records[2:], blk)
}
