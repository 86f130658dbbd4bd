package trace

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// TestRecordBytes pins a Record to its 13 B of fields rounded up to
// the 8-byte alignment of Addr: a decoded frame and an in-memory trace
// hold one per access, so a field order that pads costs 8 B each.
func TestRecordBytes(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 16 {
		t.Errorf("Record is %d bytes, want 16", got)
	}
}

func TestRoundTripKnown(t *testing.T) {
	tr := &Trace{Records: []Record{
		{NInstr: 0, Addr: 0, Write: false},
		{NInstr: 10, Addr: 0x1000, Write: true},
		{NInstr: 3, Addr: 0xFFF8, Write: false},       // non-zero line offset
		{NInstr: 0, Addr: 0x1000, Write: false},       // backwards delta
		{NInstr: 1 << 20, Addr: 1 << 40, Write: true}, // large values
	}}
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, 2); err != nil { // the delta chain restarts every two records
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("record count %d != %d", len(got.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Errorf("record %d: %+v != %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOTATRACE")); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestRejectsV1 pins that the retired flat v1 format is refused with
// an error, never decoded, by every entry point that takes a stream.
func TestRejectsV1(t *testing.T) {
	if _, err := Read(strings.NewReader(v1Seed)); err == nil {
		t.Error("Read accepted a v1 stream")
	}
	if _, err := NewReader(strings.NewReader(v1Seed), ReaderOptions{}); err == nil {
		t.Error("NewReader accepted a v1 stream")
	}
	if _, err := Stat(strings.NewReader(v1Seed)); err == nil {
		t.Error("Stat accepted a v1 stream")
	}
}

func TestInstructions(t *testing.T) {
	tr := &Trace{Records: []Record{{NInstr: 9}, {NInstr: 0}, {NInstr: 5}}}
	if got := tr.Instructions(); got != 17 { // 9+1 + 0+1 + 5+1
		t.Errorf("Instructions = %d, want 17", got)
	}
}

// seqSource emits line-strided sequential records.
type seqSource struct{ next uint64 }

func (s *seqSource) NextRecord() Record {
	r := Record{NInstr: 2, Addr: s.next}
	s.next += 64
	return r
}

func TestCapture(t *testing.T) {
	tr := Capture(&seqSource{}, 100)
	if tr.Len() != 100 {
		t.Fatalf("captured %d records", tr.Len())
	}
	if tr.Records[99].Addr != 99*64 {
		t.Errorf("last addr = %#x", tr.Records[99].Addr)
	}
}

// TestReplayerLoop pins that NewReplayer's loop argument is ignored:
// looping is the consumer's policy (workload.FromBlocks rewinds), so a
// replayer built with loop set still ends its pass.
func TestReplayerLoop(t *testing.T) {
	tr := Capture(&seqSource{}, 3)
	r := NewReplayer(tr, true)
	for p := 0; p < 2; p++ {
		recordsEqual(t, tr.Records, drain(t, r))
		if blk, err := r.NextBlock(); blk != nil || err != nil {
			t.Fatalf("pass %d: loop=true replayer went on past the end: %v, %v", p, blk, err)
		}
		if err := r.Rewind(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round-trip %d -> %d", v, got)
		}
	}
}
