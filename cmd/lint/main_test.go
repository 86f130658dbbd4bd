package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary double as the lint CLI: when the
// marker variable is set, the process runs main() instead of the test
// suite.
func TestMain(m *testing.M) {
	if os.Getenv("LINT_UNDER_TEST") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestUnknownSuppressionIsAFinding: a //lint:ignore naming no analyzer
// of the suite suppresses nothing, so it must be reported rather than
// sit in the tree unnoticed — the fate of a suppression whose analyzer
// was deleted. The fixture also names a real analyzer, which is not a
// finding, and the "*" wildcard, which matches no analyzer.
func TestUnknownSuppressionIsAFinding(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if d, ok := t.Deadline(); ok {
		ctx, cancel = context.WithDeadline(ctx, d)
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, os.Args[0], "./testdata/suppress")
	cmd.Env = append(os.Environ(), "LINT_UNDER_TEST=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("lint ./testdata/suppress: got %v, want exit 1\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	want := []string{`suppress.go:9:2: lint: //lint:ignore names "nosuch"`, `suppress.go:11:2: lint: //lint:ignore names "*"`}
	if len(lines) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(lines), len(want), stdout.String())
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) {
			t.Errorf("finding %d = %q, want it to contain %q", i, lines[i], w)
		}
	}
}
