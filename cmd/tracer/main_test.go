package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cachepirate/internal/trace"
)

// TestMain lets the test binary double as the tracer CLI: when the
// marker variable is set, the process runs main() instead of the test
// suite, so tests can exec real tracer invocations without a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("TRACER_UNDER_TEST") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// tracer runs one CLI invocation in a subprocess and returns combined
// output, failing the test on a non-zero exit.
func tracer(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACER_UNDER_TEST=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("tracer %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// cliTestTrace builds a small deterministic trace with enough address
// spread to exercise the varint delta encoder.
func cliTestTrace(n int) *trace.Trace {
	tr := &trace.Trace{}
	addr := uint64(0x1000)
	for i := 0; i < n; i++ {
		addr += uint64((i%7)*64 + 64)
		if i%13 == 0 {
			addr -= 512
		}
		tr.Records = append(tr.Records, trace.Record{
			NInstr: uint32(i % 5),
			Addr:   addr,
			Write:  i%3 == 0,
		})
	}
	return tr
}

// readFile decodes a trace file of either version into memory.
func readFile(t *testing.T, path string) *trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return tr
}

func sameRecords(t *testing.T, want, got *trace.Trace, what string) {
	t.Helper()
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records, want %d", what, len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, got.Records[i], want.Records[i])
		}
	}
}

// TestConvertRoundTrip drives the CLI through v1 -> v2 -> v1 and
// checks the records survive both directions bit-for-bit.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := cliTestTrace(3000)
	v1 := filepath.Join(dir, "t.v1")
	f, err := os.Create(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	v2 := filepath.Join(dir, "t.v2")
	tracer(t, "convert", "-to", "v2", "-frame", "256", "-o", v2, v1)
	sameRecords(t, tr, readFile(t, v2), "v1->v2")

	back := filepath.Join(dir, "back.v1")
	tracer(t, "convert", "-to", "v1", "-o", back, v2)
	sameRecords(t, tr, readFile(t, back), "v2->v1")
}

// TestConvertInPlace re-frames a v2 file onto itself: the temp-file +
// rename path must leave a valid, identical trace and no temp debris.
func TestConvertInPlace(t *testing.T) {
	dir := t.TempDir()
	tr := cliTestTrace(2000)
	path := filepath.Join(dir, "t.cptr2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteV2Frames(f, 64); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	tracer(t, "compact", "-frame", "512", "-o", path, path)
	sameRecords(t, tr, readFile(t, path), "in-place compact")

	// Re-framed as asked, and the temp file was renamed away.
	st, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := trace.Stat(st)
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Frames != (2000+511)/512 {
		t.Errorf("in-place compact left %d frames, want %d", info.Frames, (2000+511)/512)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		for _, e := range ents {
			t.Logf("left behind: %s", e.Name())
		}
		t.Errorf("dir holds %d entries after in-place convert, want 1", len(ents))
	}

	// An in-place v2 -> v1 downgrade exercises the counting pre-pass
	// plus the rename on the same invocation.
	tracer(t, "convert", "-to", "v1", "-o", path, path)
	sameRecords(t, tr, readFile(t, path), "in-place v2->v1")
}

// TestInfoParallelLine pins the decode-ahead report: v2 traces
// advertise it, v1 traces do not, and -check verifies a v2 file
// through the decode-ahead Reader.
func TestInfoParallelLine(t *testing.T) {
	dir := t.TempDir()
	tr := cliTestTrace(1500)

	v2 := filepath.Join(dir, "t.cptr2")
	f, err := os.Create(v2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteV2Frames(f, 128); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := tracer(t, "info", "-check", v2)
	if !strings.Contains(out, "parallel:      yes") {
		t.Errorf("v2 info missing parallel-decode line:\n%s", out)
	}
	if !strings.Contains(out, "check:         OK — 1500 records") {
		t.Errorf("-check did not verify:\n%s", out)
	}

	v1 := filepath.Join(dir, "t.v1")
	f, err = os.Create(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out = tracer(t, "info", v1)
	if !strings.Contains(out, "parallel:      no") {
		t.Errorf("v1 info missing parallel-decode line:\n%s", out)
	}
}
