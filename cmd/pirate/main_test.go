package main

import (
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

// usageExit runs one CLI invocation, fails the test unless it exits 2,
// and returns its stdout and stderr.
func usageExit(t *testing.T, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PIRATE_UNDER_TEST=1")
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
