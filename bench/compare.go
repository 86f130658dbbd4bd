package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readResults loads a file written by -all.
func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Results) == 0 {
		return nil, fmt.Errorf("%s: no results (want a file written by -all)", path)
	}
	return file.Results, nil
}

// worsening returns by what share of a the value b is worse, given the
// metric's direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareFiles prints one row per (workload, end-to-end metric) of A against
// B with the metric's bound, then the exact metrics, which must be identical
// when both runs used one seed. It reports whether B is within every bound.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) (bool, error) {
	as, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	bs, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]*result{}
	for _, b := range bs {
		byName[b.Workload] = b
	}
	ok := true
	flag := func(bad bool) string {
		if bad {
			ok = false
			return "  OUTSIDE"
		}
		return ""
	}
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "B/A", "bound")
	for _, a := range as {
		b := byName[a.Workload]
		if b == nil {
			fmt.Fprintf(w, "%-15s missing from %s%s\n", a.Workload, pathB, flag(true))
			continue
		}
		for _, ms := range spec.EndToEnd {
			va, okA := a.EndToEnd[ms.Name]
			vb, okB := b.EndToEnd[ms.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-15s %-16s not in both files%s\n", a.Workload, ms.Name, flag(true))
				continue
			}
			bound := 0.0
			if ms.Bound != nil {
				bound = *ms.Bound
			}
			fmt.Fprintf(w, "%-15s %-16s %14.6g %14.6g %8.3f %6.2f%s\n", a.Workload, ms.Name,
				va.Value, vb.Value, vb.Value/va.Value, bound, flag(worsening(ms.Better, va.Value, vb.Value) > bound))
		}
		if !a.Correct || !b.Correct {
			fmt.Fprintf(w, "%-15s %-16s A %v, B %v%s\n", a.Workload, "correct", a.Correct, b.Correct, flag(true))
		}
		if a.Seed != b.Seed {
			fmt.Fprintf(w, "%-15s seeds %d and %d differ: exact metrics not compared\n", a.Workload, a.Seed, b.Seed)
			continue
		}
		for _, name := range sortedKeys(a.Exact) {
			va, vb := a.Exact[name], b.Exact[name]
			fmt.Fprintf(w, "%-15s %-16s %14.9g %14.9g %8s %6s%s\n", a.Workload, name, va, vb, "", "exact",
				flag(math.Float64bits(va) != math.Float64bits(vb)))
		}
	}
	return ok, nil
}
