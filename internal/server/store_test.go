package server

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// testTraceBytes returns a small captured workload encoded as a v2
// stream, plus its decoded totals.
func testTraceBytes(t testing.TB, name string, seed uint64, n int) ([]byte, *trace.Trace) {
	t.Helper()
	spec := workload.MustByName(name)
	tr := simulate.CaptureTrace(spec.New, seed, 0, n)
	var buf bytes.Buffer
	if err := tr.WriteV2(&buf); err != nil {
		t.Fatalf("WriteV2: %v", err)
	}
	return buf.Bytes(), tr
}

// v1Trace is a valid stream in the retired flat v1 format (magic
// CPTR1): one record. The store must refuse it, on upload and on
// reopen.
const v1Trace = "CPTR1\n\x01\x02\x02\x01"

func TestStorePutGetRoundTrip(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, tr := testTraceBytes(t, "microrand", 1, 5_000)

	info, err := store.Put(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if info.Records != int64(tr.Len()) {
		t.Errorf("Records = %d, want %d", info.Records, tr.Len())
	}
	if uint64(info.Instructions) != tr.Instructions() {
		t.Errorf("Instructions = %d, want %d", info.Instructions, tr.Instructions())
	}
	if info.Bytes != int64(len(raw)) {
		t.Errorf("Bytes = %d, want %d", info.Bytes, len(raw))
	}
	if len(info.Hash) != 64 {
		t.Errorf("Hash = %q, want 64 hex chars", info.Hash)
	}

	got, ok := store.Info(info.Hash)
	if !ok || got != info {
		t.Errorf("Info(%s) = %+v, %t; want %+v, true", info.Hash, got, ok, info)
	}

	// The stored object must replay to the identical record sequence.
	src, err := store.Open(info.Hash)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() {
		if err := src.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	var n int64
	for {
		blk, err := src.NextBlock()
		if err != nil {
			t.Fatalf("NextBlock: %v", err)
		}
		if len(blk) == 0 {
			break
		}
		n += int64(len(blk))
	}
	if n != info.Records {
		t.Errorf("replayed %d records, want %d", n, info.Records)
	}
}

func TestStoreDedupesIdenticalUploads(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := testTraceBytes(t, "microrand", 1, 2_000)
	a, err := store.Put(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Put(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("second Put = %+v, want identical %+v", b, a)
	}
	if store.Len() != 1 {
		t.Errorf("store holds %d traces, want 1", store.Len())
	}
}

func TestStoreRejectsCorruptUploads(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := testTraceBytes(t, "microrand", 1, 2_000)
	flipped := append([]byte{}, raw...)
	flipped[len(flipped)-8] ^= 0x40
	cases := map[string][]byte{
		"garbage":      []byte("not a trace at all"),
		"empty":        {},
		"truncated":    raw[:len(raw)/2],
		"bit-flipped":  flipped,
		"magic-munged": append([]byte("XPTR2"), raw[5:]...),
		"v1":           []byte(v1Trace),
	}
	for name, body := range cases {
		if _, err := store.Put(bytes.NewReader(body)); err == nil {
			t.Errorf("%s upload accepted, want error", name)
		}
	}
	if store.Len() != 0 {
		t.Errorf("store holds %d traces after rejected uploads, want 0", store.Len())
	}
	// Rejected uploads must not leak temp files into the store dir.
	ents, err := os.ReadDir(store.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("leftover file %s in store dir", e.Name())
	}
}

func TestStoreReindexesOnReopen(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := testTraceBytes(t, "microseq", 2, 3_000)
	info, err := store.Put(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	// A torn write from a "crashed" process must be skipped on reopen.
	torn := filepath.Join(dir, strings.Repeat("ab", 32)+".trace")
	if err := os.WriteFile(torn, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	// So must an object a v1-era process stored.
	old := filepath.Join(dir, strings.Repeat("cd", 32)+".trace")
	if err := os.WriteFile(old, []byte(v1Trace), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := reopened.Info(info.Hash)
	if !ok {
		t.Fatalf("reopened store lost trace %s", info.Hash)
	}
	if got != info {
		t.Errorf("reopened info = %+v, want %+v", got, info)
	}
	if reopened.Len() != 1 {
		t.Errorf("reopened store holds %d traces, want 1 (torn and v1 files skipped)", reopened.Len())
	}
}
