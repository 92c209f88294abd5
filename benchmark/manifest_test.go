package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

// manifestFromCode is what BENCHMARK.json must say, given the tables the
// benchmark emits from.
func manifestFromCode(runSeconds int) manifest {
	m := manifest{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

// TestManifestMatchesCode keeps BENCHMARK.json and the metric tables in
// the code equal: a later driver reads the file, the program prints from
// the tables.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := manifestFromCode(got.RunSeconds)
	if !reflect.DeepEqual(got, want) {
		b, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the tables in the code; it should read:\n%s", b)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Fatalf("run_seconds %d out of range", got.RunSeconds)
	}
	if len(got.PerLayer) > 128 || len(got.EndToEnd) > 16 {
		t.Fatalf("too many metrics: %d end-to-end, %d per-layer", len(got.EndToEnd), len(got.PerLayer))
	}
}
