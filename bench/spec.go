package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json. It is the single source of metric names,
// units, directions and bounds: a workload only produces numbers by name, the
// emitter walks the spec, and -compare reads the bounds from it.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

// loadSpec finds BENCHMARK.json in the working directory (the checkout root,
// where the driver and run.sh start the harness) or its parent (`go run .`
// and `go test` inside bench/), and returns it with the checkout root.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		abs, err := filepath.Abs(root)
		if err != nil {
			return nil, "", err
		}
		return &s, abs, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the checkout root or from bench/")
}

// metricValue is one printed metric. Note carries what a bare number cannot
// (which percentile a tail is, "unverified: 2 cpus" on a multi-core ratio);
// it appears in -o files only, never in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// emit maps measured numbers onto the spec's metric list. An end-to-end
// metric the workload did not produce is a harness bug and fails the run; a
// per-layer metric it did not produce reads 0, meaning this workload does not
// run that layer (every workload prints every per-layer name).
func emit(specs []metricSpec, measured map[string]float64, notes map[string]string, required bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	known := make(map[string]bool, len(specs))
	for _, ms := range specs {
		known[ms.Name] = true
		v, ok := measured[ms.Name]
		if !ok && required {
			return nil, fmt.Errorf("end-to-end metric %q was not measured", ms.Name)
		}
		out[ms.Name] = metricValue{Value: v, Unit: ms.Unit, Note: notes[ms.Name]}
	}
	for name := range measured {
		if !known[name] {
			return nil, fmt.Errorf("measured metric %q is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}
