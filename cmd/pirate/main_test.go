package main

import (
	"errors"
	"os"
	"os/exec"
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

// TestRejectsUnknownPlot pins that -plot names one of the four metrics
// before anything runs: an unknown name used to profile the benchmark
// and then chart the fetch ratio, exiting 0.
func TestRejectsUnknownPlot(t *testing.T) {
	for _, metric := range []string{"bogus", "CPI"} {
		t.Run(metric, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-plot", metric, "microseq")
			cmd.Env = append(os.Environ(), "PIRATE_UNDER_TEST=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("got %v, want exit 2\n%s", err, stderr.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, "cpi, bw, fetch or miss") {
				t.Errorf("stderr does not list the metrics:\n%s", msg)
			}
		})
	}
}
