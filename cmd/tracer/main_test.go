package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// run runs one CLI invocation in a subprocess and returns its combined
// output and exit error.
func run(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACER_UNDER_TEST=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// tracer runs one CLI invocation and returns its combined output,
// failing the test on a non-zero exit.
func tracer(t *testing.T, args ...string) string {
	t.Helper()
	out, err := run(args...)
	if err != nil {
		t.Fatalf("tracer %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return out
}

// writeTrace writes tr to path as a v2 file of frameRecords-record
// frames.
func writeTrace(t *testing.T, path string, tr *trace.Trace, frameRecords int) {
	t.Helper()
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
}

// frames returns how many frames the trace file at path holds.
func frames(t *testing.T, path string) int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := trace.Stat(f)
	if err != nil {
		t.Fatal(err)
	}
	return st.Frames
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

// readFile decodes a trace file into memory.
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

// TestCompactRoundTrip re-frames a file into a new one: the records
// must survive bit-for-bit, in the requested frames.
func TestCompactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := cliTestTrace(3000)
	src := filepath.Join(dir, "t.cptr2")
	writeTrace(t, src, tr, 64)

	dst := filepath.Join(dir, "t256.cptr2")
	tracer(t, "compact", "-frame", "256", "-o", dst, src)
	sameRecords(t, tr, readFile(t, dst), "compact")
	if got, want := frames(t, dst), int64((3000+255)/256); got != want {
		t.Errorf("compact wrote %d frames, want %d", got, want)
	}
}

// TestCompactInPlace re-frames a file onto itself: the temp-file +
// rename path must leave a valid, identical trace and no temp debris.
func TestCompactInPlace(t *testing.T) {
	dir := t.TempDir()
	tr := cliTestTrace(2000)
	path := filepath.Join(dir, "t.cptr2")
	writeTrace(t, path, tr, 64)

	tracer(t, "compact", "-frame", "512", "-o", path, path)
	sameRecords(t, tr, readFile(t, path), "in-place compact")

	// Re-framed as asked, and the temp file was renamed away.
	if got, want := frames(t, path), int64((2000+511)/512); got != want {
		t.Errorf("in-place compact left %d frames, want %d", got, want)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		for _, e := range ents {
			t.Logf("left behind: %s", e.Name())
		}
		t.Errorf("dir holds %d entries after in-place compact, want 1", len(ents))
	}
}

// TestInfoCheck pins info's report: -check verifies a file through the
// decode-ahead Reader, and a file in the retired v1 format is refused
// with an error exit, not a panic.
func TestInfoCheck(t *testing.T) {
	dir := t.TempDir()
	tr := cliTestTrace(1500)
	path := filepath.Join(dir, "t.cptr2")
	writeTrace(t, path, tr, 128)
	out := tracer(t, "info", "-check", path)
	for _, want := range []string{
		"frames:        12 (~125 records/frame)",
		"check:         OK — 1500 records",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info -check output lacks %q:\n%s", want, out)
		}
	}

	v1 := filepath.Join(dir, "t.cptr1")
	if err := os.WriteFile(v1, []byte("CPTR1\n\x01\x02\x02\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run("info", v1)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(out, "tracer: ") || strings.Contains(out, "panic") {
		t.Errorf("info on a v1 file: %v\n%s", err, out)
	}
}

// TestRecordRejectsBadCounts pins that record refuses a capture it
// cannot make — no records, or a negative skip — with a usage exit
// before creating the output file.
func TestRecordRejectsBadCounts(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-records", "-5"},
		{"-records", "0"},
		{"-skip", "-1"},
	} {
		path := filepath.Join(dir, "t.cptr2")
		out, err := run(append(append([]string{"record"}, args...), "-o", path, "microrand")...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(out, "tracer: -records must be at least 1") {
			t.Errorf("record %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("record %s left an output file (stat: %v)", strings.Join(args, " "), err)
		}
	}
}

// TestRejectsBadFrame pins that record and compact refuse a frame size
// outside [1, trace.MaxFrameRecords] with a usage exit that names the
// range, before writing anything, where the writer would clamp it.
func TestRejectsBadFrame(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.cptr2")
	writeTrace(t, src, cliTestTrace(300), 64)
	for _, frame := range []string{"0", "-5", "1048577", "100000000"} {
		dst := filepath.Join(dir, "t.cptr2")
		for _, args := range [][]string{
			{"record", "-records", "100", "-frame", frame, "-o", dst, "microrand"},
			{"compact", "-frame", frame, "-o", dst, src},
		} {
			out, err := run(args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(out, "tracer: -frame must be between 1 and 1048576") {
				t.Errorf("%s: %v\n%s", strings.Join(args, " "), err, out)
			}
			if _, err := os.Stat(dst); !os.IsNotExist(err) {
				t.Errorf("%s left an output file (stat: %v)", strings.Join(args, " "), err)
			}
		}
	}
	// The bounds themselves are accepted.
	for _, frame := range []string{"1", "1048576"} {
		dst := filepath.Join(dir, "ok-"+frame+".cptr2")
		tracer(t, "compact", "-frame", frame, "-o", dst, src)
		sameRecords(t, readFile(t, src), readFile(t, dst), "compact -frame "+frame)
	}
}

// TestUsageFlagsDefined checks every -flag the usage text names against
// the flags its subcommand defines, as `tracer <sub> -h` prints them.
func TestUsageFlagsDefined(t *testing.T) {
	usage, _ := run() // no subcommand: usage, exit 2
	lines := 0
	for _, line := range strings.Split(usage, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != "tracer" {
			continue
		}
		lines++
		help, _ := run(fields[1], "-h")
		for _, name := range usageFlag.FindAllStringSubmatch(line, -1) {
			if !strings.Contains(help, "\n  -"+name[1]+" ") && !strings.Contains(help, "\n  -"+name[1]+"\n") {
				t.Errorf("usage %q names -%s, which tracer %s does not define:\n%s", line, name[1], fields[1], help)
			}
		}
	}
	if lines != 3 {
		t.Errorf("usage lists %d subcommands, want 3:\n%s", lines, usage)
	}
}

// usageFlag matches a -flag token in a usage line.
var usageFlag = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z-]*)`)
