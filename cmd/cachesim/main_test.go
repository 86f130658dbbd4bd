package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary double as the cachesim CLI: when the
// marker variable is set, the process runs main() instead of the test
// suite, so tests can exec real cachesim invocations without a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("CACHESIM_UNDER_TEST") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// run runs one CLI invocation in a subprocess and returns its stdout,
// its stderr and its exit error.
func run(args ...string) (string, string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CACHESIM_UNDER_TEST=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// cachesim runs one CLI invocation and returns its stdout, failing the
// test on a non-zero exit.
func cachesim(t *testing.T, args ...string) string {
	t.Helper()
	out, errOut, err := run(args...)
	if err != nil {
		t.Fatalf("cachesim %s: %v\n%s", strings.Join(args, " "), err, errOut)
	}
	return out
}

// wantUsageExit fails the test unless err is exit code 2 with stderr
// containing msg.
func wantUsageExit(t *testing.T, err error, stderr, msg string) {
	t.Helper()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr, msg) {
		t.Errorf("got %v, want exit 2 naming %q\n%s", err, msg, stderr)
	}
}

// TestRejectsBadCounts pins that a capture cachesim cannot make — no
// records, or a negative skip — is a usage error before any capture,
// not a panic.
func TestRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct{ name, flag, value string }{
		{"records=-1", "-records", "-1"},
		{"records=0", "-records", "0"},
		{"skip=-1", "-skip", "-1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, errOut, err := run(tc.flag, tc.value, "microrand")
			wantUsageExit(t, err, errOut, "-records must be at least 1")
		})
	}
}

// TestLoadSaveRejected pins that -save works on captures only: with
// -load it exits 2, names the re-encode command and writes nothing.
func TestLoadSaveRejected(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.cptr2")
	cachesim(t, "-records", "500", "-j", "1", "-save", src, "microrand")
	dst := filepath.Join(dir, "dst.cptr2")
	_, errOut, err := run("-load", src, "-save", dst)
	wantUsageExit(t, err, errOut, "tracer compact")
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Errorf("-load -save left an output file (stat: %v)", err)
	}
}

// TestLoadMatchesCapture pins the out-of-core path against the
// in-memory one at the CLI: every engine prints the same CSV over a
// capture and over -load of the file -save wrote from it.
func TestLoadMatchesCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.cptr2")
	cachesim(t, "-records", "3000", "-j", "1", "-save", path, "microrand")
	for _, engine := range []string{"fused", "persize", "mattson", "analytic"} {
		t.Run(engine, func(t *testing.T) {
			flags := []string{"-engine", engine, "-policy", "lru", "-j", "2", "-csv"}
			mem := cachesim(t, append(flags, "-records", "3000", "microrand")...)
			streamed := cachesim(t, append(flags, "-load", path)...)
			if mem == "" || streamed != mem {
				t.Errorf("-load CSV differs from the capture's:\n%s\nvs\n%s", streamed, mem)
			}
		})
	}
}

// TestLoadStack pins that -stack, the one consumer that needs a -load
// file's records in memory, still prints the stack-distance curve.
func TestLoadStack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.cptr2")
	cachesim(t, "-records", "2000", "-j", "1", "-save", path, "microrand")
	out := cachesim(t, "-load", path, "-stack", "-j", "1", "-csv")
	mem := cachesim(t, "-records", "2000", "-stack", "-j", "1", "-csv", "microrand")
	if out != mem {
		t.Errorf("-load -stack output differs from the capture's:\n%s\nvs\n%s", out, mem)
	}
}

// TestLoadRejectsV1 pins that a file in the retired v1 format fails
// -load with an error exit, never a panic, whether the engine streams
// it or -stack reads it into memory.
func TestLoadRejectsV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.cptr1")
	if err := os.WriteFile(path, []byte("CPTR1\n\x01\x02\x02\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		flags []string
	}{
		{"stream", nil},
		{"stack", []string{"-stack"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, errOut, err := run(append(tc.flags, "-j", "1", "-load", path)...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 || strings.Contains(errOut, "panic") {
				t.Errorf("-load of a v1 file: %v\n%s", err, errOut)
			}
		})
	}
}
