package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric lists the program
// prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []unitSpec `json:"end_to_end"`
		PerLayer  []unitSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []unitSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

func TestCompleteFillsOnlyInTracedMode(t *testing.T) {
	list := []unitSpec{{"a", "ms"}, {"b", "count"}}
	if _, err := complete(list, []metric{{Name: "a", Unit: "ms"}}, false); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
	got, err := complete(list, []metric{{Name: "b", Unit: "count", Value: 2}}, true)
	if err != nil || len(got) != 2 || got[0].Name != "a" || got[0].Value != 0 || got[1].Value != 2 {
		t.Errorf("complete = %+v, %v", got, err)
	}
	if _, err := complete(list, []metric{{Name: "a", Unit: "s"}}, true); err == nil {
		t.Error("a unit mismatch must be an error")
	}
	if _, err := complete(list, []metric{{Name: "z", Unit: "s"}}, true); err == nil {
		t.Error("an unlisted metric must be an error")
	}
}
