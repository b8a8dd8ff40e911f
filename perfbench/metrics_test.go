package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json and metrics.go must list the same metrics.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, want %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, want %s %s %s", i, m.Name, m.Unit, m.Better, s.Name, s.Unit, s.Better)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, want %d", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range doc.PerLayer {
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer[%d] = %s %s %s, want %s %s %s", i, m.Name, m.Unit, m.Better, s.Name, s.Unit, s.Better)
		}
		if s.Moves == "" {
			t.Errorf("%s does not say which end-to-end metric it should move", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("%s listed twice", s.Name)
		}
		seen[s.Name] = true
	}
}
