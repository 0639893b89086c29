package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatches holds BENCHMARK.json and this package in step:
// the workloads in order, both metric lists row for row, and a why for
// every workload.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", bm.Paths)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bm.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", bm.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bm.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", bm.PerLayer, perLayer)
	}
}

// TestEveryMetricIsReported checks that a run fills rows of its list only,
// every one of them above 0 when they are the end-to-end ones, and that the
// result line carries every metric BENCHMARK.json names, bypassed layers'
// rows too.
func TestEveryMetricIsReported(t *testing.T) {
	def, _ := findWorkload("scale_sweep")
	for _, traced := range []bool{false, true} {
		res, err := execute(def, tinyDims, 1, 0, traced)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for _, m := range metricsOf(traced) {
			want[m.Name] = true
		}
		for name := range res.Metrics {
			if !want[name] {
				t.Errorf("traced=%v: metric %s is in no list", traced, name)
			}
		}
		var line struct{ Metrics map[string]any }
		if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("traced=%v: result line has %d metrics, want %d", traced, len(line.Metrics), len(want))
		}
		if !traced {
			for name := range want {
				if res.Metrics[name] <= 0 {
					t.Errorf("end-to-end metric %s is %v, want above 0", name, res.Metrics[name])
				}
			}
		}
	}
}
