package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary double as the experiments CLI: when
// the marker variable is set, the process runs main() instead of the
// test suite, so tests can exec real invocations without a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_UNDER_TEST") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestRejectsBadOptions pins that an out-of-range flag exits 2 with one
// line naming it, before any experiment runs: -trace -5 used to exit 1
// on a recovered makeslice panic inside the runner, and -cycles -1 on
// core.Profile's verdict after the runner had started.
func TestRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-trace", "-5", "fig6"}, "-trace"},
		{[]string{"-quick", "-cycles", "-1", "fig1"}, "-cycles"},
		{[]string{"-cycles", "-1", "-trace", "-5"}, "-trace"},
		{[]string{"-quick", "-j", "1", "-benchmarks", "microseq", "-interval", "9223372036854775808", "tab3"}, "-interval"},
		{[]string{"-interval", "18446744073709551615", "fig1"}, "-interval"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "EXPERIMENTS_UNDER_TEST=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("got %v, want exit 2\n%s", err, stderr.String())
			}
			lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
			if len(lines) != 1 || !strings.HasPrefix(lines[0], "experiments: "+tc.flag+": ") {
				t.Errorf("stderr is not one line naming %s:\n%s", tc.flag, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout is not empty:\n%s", stdout.String())
			}
		})
	}
}
