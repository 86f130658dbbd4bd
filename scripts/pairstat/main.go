// Command pairstat prints the verdict table of a set of alternated
// parent/change benchmark pairs, as scripts/pairs.sh writes them: for
// every end-to-end metric BENCHMARK.json declares, the parent's and the
// change's medians, the parent's interquartile range, the change of the
// median, how many pairs the change won, and a verdict.
//
//	go run ./scripts/pairstat [-spec BENCHMARK.json] [-parent REV] [-change DESC] DIR
//
// DIR holds parent-NN.json and change-NN.json, one pair per NN, each the
// record `bench -o` writes. -parent and -change name the two sides in the
// header; scripts/pairs.sh passes the parent revision and `git describe
// --always --dirty` of the working tree. Without them the header names
// each side by its records' commit, the vcs.revision its build was
// stamped with, which is the parent's on both sides of a working-tree
// change; with them, a record whose commit is not its side's gets a
// warning. A metric is a gain when there are at least ten pairs, the
// change won at least nine in ten and its median is better than the
// parent's by more than the parent's IQR; a loss when its median is
// worse than the parent's by more than the metric's bound; otherwise
// within. Only the standard library is used, so the tool runs wherever
// Go does.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pairstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration naming the end-to-end metrics")
	parent := fs.String("parent", "", "the parent side's revision (default: its records' commit)")
	change := fs.String("change", "", "the change side's git describe (default: its records' commit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: pairstat [-spec BENCHMARK.json] [-parent REV] [-change DESC] DIR")
		return 2
	}
	metrics, err := loadMetrics(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "pairstat:", err)
		return 1
	}
	pairs, err := loadPairs(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "pairstat:", err)
		return 1
	}
	if err := writeTable(stdout, metrics, pairs, sides{*parent, *change}); err != nil {
		fmt.Fprintln(stderr, "pairstat:", err)
		return 1
	}
	return 0
}

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // largest tolerated relative loss
}

func loadMetrics(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end-to-end metric", path)
	}
	return spec.EndToEnd, nil
}

// run is the part of one bench -o record the table reads.
type run struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Host     struct {
		CPUs   int    `json:"cpus"`
		Commit string `json:"commit"`
	} `json:"host"`
	Correct  bool `json:"correct"`
	Failed   int  `json:"failed"`
	EndToEnd map[string]struct {
		Value float64 `json:"value"`
	} `json:"end_to_end"`
}

// pair is one parent run and the change run alternated with it.
type pair struct{ parent, change run }

// loadPairs reads every parent-NN.json in dir with its change-NN.json.
func loadPairs(dir string) ([]pair, error) {
	names, err := filepath.Glob(filepath.Join(dir, "parent-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var pairs []pair
	for _, pname := range names {
		cname := filepath.Join(dir, "change-"+strings.TrimPrefix(filepath.Base(pname), "parent-"))
		var p pair
		if err := readRun(pname, &p.parent); err != nil {
			return nil, err
		}
		if err := readRun(cname, &p.change); err != nil {
			return nil, err
		}
		pairs = append(pairs, p)
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no parent-*.json in %s", dir)
	}
	return pairs, nil
}

func readRun(path string, r *run) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, r); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// minGainPairs is the fewest pairs a gain verdict rests on.
const minGainPairs = 10

// row is one metric's line of the verdict table.
type row struct {
	metric
	parentMed, changeMed, parentIQR float64
	delta                           float64 // changeMed/parentMed - 1
	won                             int
	verdict                         string
}

// judge computes one metric's row over the pairs.
func judge(m metric, pairs []pair) (row, error) {
	r := row{metric: m}
	var parent, change []float64
	for i, p := range pairs {
		pv, pok := p.parent.EndToEnd[m.Name]
		cv, cok := p.change.EndToEnd[m.Name]
		if !pok || !cok {
			return r, fmt.Errorf("pair %d lacks %s", i+1, m.Name)
		}
		parent, change = append(parent, pv.Value), append(change, cv.Value)
		if better(m, cv.Value, pv.Value) {
			r.won++
		}
	}
	r.parentMed, r.changeMed = quantile(parent, 0.5), quantile(change, 0.5)
	r.parentIQR = quantile(parent, 0.75) - quantile(parent, 0.25)
	if r.parentMed != 0 {
		r.delta = r.changeMed/r.parentMed - 1
	}
	loss := r.delta
	if m.Better == "higher" {
		loss = -loss
	}
	switch {
	case len(pairs) >= minGainPairs && 10*r.won >= 9*len(pairs) && better(m, r.changeMed, r.parentMed) && math.Abs(r.changeMed-r.parentMed) > r.parentIQR:
		r.verdict = "gain"
	case loss > m.Bound:
		r.verdict = "loss"
	default:
		r.verdict = "within"
	}
	return r, nil
}

// better reports whether a beats b in m's direction.
func better(m metric, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[lo+1]*frac)
}

// sides names the parent and the change in the table's header; an empty
// name falls back to the first pair's record commit.
type sides struct{ parent, change string }

// describedCommit is the commit a revision or a `git describe --always
// --dirty` string names: its "-dirty" suffix dropped and, after a tag,
// the abbreviation following "-g". It is empty when desc names none, as a
// bare tag does.
func describedCommit(desc string) string {
	desc = strings.TrimSuffix(desc, "-dirty")
	if i := strings.LastIndex(desc, "-g"); i >= 0 {
		desc = desc[i+2:]
	}
	if len(desc) < 7 || strings.Trim(desc, "0123456789abcdef") != "" {
		return ""
	}
	return desc
}

// commitWarnings lists the records whose commit is not the one their
// side's name gives. Records that name no commit are not judged.
func commitWarnings(pairs []pair, names sides) []string {
	var warn []string
	check := func(i int, side, name string, r run) {
		want := describedCommit(name)
		got := r.Host.Commit
		if want == "" || got == "" || got == "unknown" || strings.HasPrefix(got, want) || strings.HasPrefix(want, got) {
			return
		}
		warn = append(warn, fmt.Sprintf("pair %d: the %s record was built from %s, not %s", i+1, side, short(got), name))
	}
	for i, p := range pairs {
		check(i, "parent", names.parent, p.parent)
		check(i, "change", names.change, p.change)
	}
	return warn
}

func writeTable(w io.Writer, metrics []metric, pairs []pair, names sides) error {
	first := pairs[0]
	var pOK, cOK, pFailed, cFailed int
	for _, p := range pairs {
		if p.parent.Workload != first.parent.Workload || p.change.Workload != first.parent.Workload {
			return errors.New("the runs are not all of one workload")
		}
		if p.parent.Correct {
			pOK++
		}
		if p.change.Correct {
			cOK++
		}
		pFailed += p.parent.Failed
		cFailed += p.change.Failed
	}
	if names.parent == "" {
		names.parent = short(first.parent.Host.Commit)
	}
	if names.change == "" {
		names.change = short(first.change.Host.Commit)
	}
	fmt.Fprintf(w, "# %s, seed %d, %d pairs, nproc %d (parent %s, change %s)\n",
		first.parent.Workload, first.parent.Seed, len(pairs), first.parent.Host.CPUs,
		names.parent, names.change)
	for _, warn := range commitWarnings(pairs, names) {
		fmt.Fprintf(w, "# warning: %s\n", warn)
	}
	fmt.Fprintf(w, "# correct runs: parent %d/%d, change %d/%d; failed ops: parent %d, change %d\n",
		pOK, len(pairs), cOK, len(pairs), pFailed, cFailed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbetter\tparent_med\tchange_med\tparent_IQR\tmedian_Δ\twon\tbound\tverdict")
	for _, m := range metrics {
		r, err := judge(m, pairs)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3g\t%+.1f%%\t%d/%d\t%g\t%s\n",
			r.Name, r.Unit, r.Better, r.parentMed, r.changeMed, r.parentIQR,
			100*r.delta, r.won, len(pairs), r.Bound, r.verdict)
	}
	return tw.Flush()
}

// short abbreviates a commit hash for the header.
func short(commit string) string {
	if commit == "" {
		return "unknown"
	}
	return commit[:min(len(commit), 12)]
}
