package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary double as the pirate CLI: when the
// marker variable is set, the process runs main() instead of the test
// suite, so tests can exec real pirate invocations without a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("PIRATE_UNDER_TEST") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// command returns a child that runs this test binary as the CLI. It is
// killed when the test's -timeout deadline passes or the test ends, so
// a hung invocation cannot outlive the test binary.
func command(t *testing.T, args ...string) *exec.Cmd {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if d, ok := t.Deadline(); ok {
		ctx, cancel = context.WithDeadline(ctx, d)
		t.Cleanup(cancel)
	}
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PIRATE_UNDER_TEST=1")
	return cmd
}

// usageExit runs one CLI invocation, fails the test unless it exits 2,
// and returns its stdout and stderr.
func usageExit(t *testing.T, args ...string) (string, string) {
	t.Helper()
	cmd := command(t, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("pirate %s: got %v, want exit 2\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestRejectsUnknownPlot pins that -plot names one of the four metrics
// before anything runs: an unknown name used to profile the benchmark
// and then chart the fetch ratio, exiting 0.
func TestRejectsUnknownPlot(t *testing.T) {
	for _, metric := range []string{"bogus", "CPI"} {
		t.Run(metric, func(t *testing.T) {
			_, stderr := usageExit(t, "-plot", metric, "microseq")
			if !strings.Contains(stderr, "cpi, bw, fetch or miss") {
				t.Errorf("stderr does not list the metrics:\n%s", stderr)
			}
		})
	}
}

// TestRejectsBadConfig pins that core.Config.Validate checks the flags
// once, before any profile runs: a single benchmark used to exit 1, and
// -all printed the same error once per suite benchmark and exited 0.
func TestRejectsBadConfig(t *testing.T) {
	for _, args := range [][]string{
		{"-threads", "9", "microseq"},
		{"-cycles", "-1", "microseq"},
		{"-all", "-threads", "9"},
		{"-all", "-cycles", "-1"},
		{"-threads", "1", "-cycles", "1", "-interval", "18446744073709551615", "povray"},
		{"-interval", "1099511627777", "microseq"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			stdout, stderr := usageExit(t, args...)
			if lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "core: ") {
				t.Errorf("stderr is not one core: line:\n%s", stderr)
			}
			if slices.Contains(args, "-interval") && !strings.Contains(stderr, "interval") {
				t.Errorf("stderr does not name the interval:\n%s", stderr)
			}
			if stdout != "" {
				t.Errorf("stdout is not empty:\n%s", stdout)
			}
		})
	}
}

// TestMachineReadableStdout pins that -json and -csv print the curve
// alone on stdout, for programs to read: stdout ends with the closing
// brace or the last curve row, and the thread count and the -overhead
// line go to stderr (they used to follow the curve on stdout).
func TestMachineReadableStdout(t *testing.T) {
	for _, tc := range []struct{ flag, last string }{
		{"-json", "}"},
		{"-csv", "8.0MB,"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			cmd := command(t, tc.flag, "-overhead", "-interval", "20000", "-cycles", "1", "-threads", "1", "microseq")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, tc.last) {
				t.Errorf("stdout ends with %q, want a line starting %q", last, tc.last)
			}
			for _, want := range []string{"pirate threads: 1\n", "overhead: "} {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}
