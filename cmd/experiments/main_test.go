package main

import (
	"context"
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
	cmd.Env = append(os.Environ(), "EXPERIMENTS_UNDER_TEST=1")
	return cmd
}

// TestRejectsBadOptions pins that an out-of-range flag or an unknown
// benchmark exits 2 with one line naming it, before any experiment
// runs: -trace -5 used to exit 1 on a recovered makeslice panic inside
// the runner, and -cycles -1 on core.Profile's verdict after the runner
// had started.
func TestRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the start of the one line on stderr
	}{
		{[]string{"-trace", "-5", "fig6"}, "experiments: -trace: "},
		{[]string{"-quick", "-cycles", "-1", "fig1"}, "experiments: -cycles: "},
		{[]string{"-cycles", "-1", "-trace", "-5"}, "experiments: -trace: "},
		{[]string{"-quick", "-j", "1", "-benchmarks", "microseq", "-interval", "9223372036854775808", "tab3"}, "experiments: -interval: "},
		{[]string{"-interval", "18446744073709551615", "fig1"}, "experiments: -interval: "},
		{[]string{"-quick", "-benchmarks", "nope", "fig8"}, `experiments: unknown benchmark "nope"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := command(t, tc.args...)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("got %v, want exit 2\n%s", err, stderr.String())
			}
			lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
			if len(lines) != 1 || !strings.HasPrefix(lines[0], tc.want) {
				t.Errorf("stderr is not one line starting %q:\n%s", tc.want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout is not empty:\n%s", stdout.String())
			}
		})
	}
}
