package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writePairs writes one parent/change record pair per value pair into
// a fresh directory, as scripts/pairs.sh names them.
func writePairs(t *testing.T, metric string, parent, change []float64) string {
	t.Helper()
	dir := t.TempDir()
	for i := range parent {
		for side, v := range map[string]float64{"parent": parent[i], "change": change[i]} {
			rec := fmt.Sprintf(`{"workload":"lru_fast","seed":7,"host":{"cpus":2,"commit":"%s"},"correct":true,"failed":0,"end_to_end":{%q:{"value":%g,"unit":"ms"}}}`, side, metric, v)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%02d.json", side, i+1)), []byte(rec), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// TestJudge pins the three verdicts on hand-made pairs of a
// lower-is-better metric.
func TestJudge(t *testing.T) {
	m := metric{Name: "compute_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25}
	parent := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 100}
	for _, tc := range []struct {
		name    string
		change  func(p float64, i int) float64
		won     int
		verdict string
	}{
		{"gain", func(p float64, i int) float64 { return p * 0.9 }, 10, "gain"},
		{"gain on nine of ten", func(p float64, i int) float64 {
			if i == 0 {
				return p * 1.01
			}
			return p * 0.9
		}, 9, "gain"},
		{"eight of ten is not enough", func(p float64, i int) float64 {
			if i < 2 {
				return p * 1.01
			}
			return p * 0.9
		}, 8, "within"},
		{"inside the IQR", func(p float64, i int) float64 { return p - 0.5 }, 10, "within"},
		{"loss beyond the bound", func(p float64, i int) float64 { return p * 1.3 }, 0, "loss"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			change := make([]float64, len(parent))
			for i, p := range parent {
				change[i] = tc.change(p, i)
			}
			pairs, err := loadPairs(writePairs(t, m.Name, parent, change))
			if err != nil {
				t.Fatal(err)
			}
			r, err := judge(m, pairs)
			if err != nil {
				t.Fatal(err)
			}
			if r.won != tc.won || r.verdict != tc.verdict {
				t.Errorf("won %d, verdict %s; want %d, %s", r.won, r.verdict, tc.won, tc.verdict)
			}
			if r.parentMed != 100 || r.parentIQR != 1.5 {
				t.Errorf("parent median %g, IQR %g; want 100, 1.5", r.parentMed, r.parentIQR)
			}
		})
	}
}

// TestTable runs the command over a directory and a spec with one
// higher-is-better metric, and checks the header and the row: three
// pairs won by 27% are too few for a gain.
func TestTable(t *testing.T) {
	dir := writePairs(t, "work_per_s", []float64{10, 11, 12}, []float64{13, 14, 15})
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"work_per_s","unit":"1/s","better":"higher","bound":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-spec", spec, dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"# lru_fast, seed 7, 3 pairs, nproc 2 (parent parent, change change)",
		"# correct runs: parent 3/3, change 3/3; failed ops: parent 0, change 0",
		"work_per_s", "+27.3%", "3/3", "within",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("table lacks %q:\n%s", want, text)
		}
	}
}

// TestSideNames: the header names the sides by -parent and -change, not
// by the records' commits (a working-tree change is stamped with its
// parent's), and a record built from another commit than its side's
// gets a warning. The change side's name is a `git describe --dirty`.
func TestSideNames(t *testing.T) {
	const parent, head, other = "976ba7aa9f14", "de3bff6e5a897068d7557e22851b822a8ddf1fc7", "0123456789abcdef0123456789abcdef01234567"
	dir := t.TempDir()
	for i, commits := range [][2]string{{parent + "0000", head}, {other, head}, {parent, "unknown"}} {
		for side, commit := range map[string]string{"parent": commits[0], "change": commits[1]} {
			rec := fmt.Sprintf(`{"workload":"serve_mixed","seed":5,"host":{"cpus":2,"commit":%q},"correct":true,"failed":0,"end_to_end":{"op_ms_p50":{"value":1,"unit":"ms"}}}`, commit)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%02d.json", side, i+1)), []byte(rec), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"op_ms_p50","unit":"ms","better":"lower","bound":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-spec", spec, "-parent", parent, "-change", "de3bff6e5a89-dirty", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	text := out.String()
	if want := "# serve_mixed, seed 5, 3 pairs, nproc 2 (parent 976ba7aa9f14, change de3bff6e5a89-dirty)\n"; !strings.HasPrefix(text, want) {
		t.Errorf("header is not %q:\n%s", want, text)
	}
	if n := strings.Count(text, "# warning: "); n != 1 || !strings.Contains(text, "# warning: pair 2: the parent record was built from 0123456789ab, not 976ba7aa9f14\n") {
		t.Errorf("want exactly one warning, for pair 2's parent record:\n%s", text)
	}
}

// TestDescribedCommit pins the commit read out of a revision or a
// `git describe --always --dirty` string.
func TestDescribedCommit(t *testing.T) {
	for desc, want := range map[string]string{
		"de3bff6e5a89":           "de3bff6e5a89",
		"de3bff6e5a89-dirty":     "de3bff6e5a89",
		"v1.2-3-gabcdef1-dirty":  "abcdef1",
		"v1.2":                   "",
		"abc":                    "",
		"release-candidate-good": "",
	} {
		if got := describedCommit(desc); got != want {
			t.Errorf("describedCommit(%q) = %q, want %q", desc, got, want)
		}
	}
}
