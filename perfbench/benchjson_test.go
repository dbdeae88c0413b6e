package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the
// benchmark's consumers read, in step with the workloads and metric
// names the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code defines %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, code %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	names := func(list []struct{ Name string }) []string {
		out := make([]string, len(list))
		for i, m := range list {
			out[i] = m.Name
		}
		return out
	}
	equal := func(kind string, got, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, code %q", kind, i, got[i], want[i])
			}
		}
	}
	equal("end_to_end", names(spec.EndToEnd), endToEndMetrics)
	equal("per_layer", names(spec.PerLayer), perLayerMetrics())
}
