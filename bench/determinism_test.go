package main

import (
	"reflect"
	"testing"
)

// virtualClock is how many leading rows of perLayer are simulated results.
const virtualClock = 8

// exact reports whether a per-layer metric must repeat bit for bit for one
// seed: the simulated results and every count.
func exact(i int, m metricDef) bool { return i < virtualClock || m.Unit == "count" }

// TestSameSeedSameNumbers runs every workload twice on one seed, untraced
// and traced: the digest, every number behind it, every virtual-clock
// metric and every count must be identical. A second seed must change the
// digest, which shows the seed reaches the layers' inputs.
func TestSameSeedSameNumbers(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			var runs []*result
			for _, traced := range []bool{false, true, false, true} {
				res, err := execute(def, tinyDims, 1, 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Fatalf("traced=%v: %d of %d ops failed: %v", traced, res.Failed, res.Ops, res.Failures)
				}
				runs = append(runs, res)
			}
			first := runs[0]
			for _, res := range runs[1:] {
				if res.Digest != first.Digest {
					t.Errorf("traced=%v: digest %s, first run %s", res.Traced, res.Digest, first.Digest)
				}
				if !reflect.DeepEqual(res.Values, first.Values) {
					t.Errorf("traced=%v: deterministic values differ from the first run:\n%v\n%v", res.Traced, res.Values, first.Values)
				}
			}
			// The one end-to-end metric on the virtual clock, from the two
			// untraced runs.
			if v := first.Metrics["virtual_ops_per_s"]; v <= 0 || v != runs[2].Metrics["virtual_ops_per_s"] {
				t.Errorf("virtual_ops_per_s: %v then %v, want one positive number", v, runs[2].Metrics["virtual_ops_per_s"])
			}
			a, b := runs[1], runs[3]
			moved := 0
			for i, m := range perLayer {
				if !exact(i, m) {
					continue
				}
				if a.Metrics[m.Name] != b.Metrics[m.Name] {
					t.Errorf("%s: %v then %v", m.Name, a.Metrics[m.Name], b.Metrics[m.Name])
				}
				if a.Metrics[m.Name] != 0 {
					moved++
				}
			}
			if moved == 0 {
				t.Error("no exact per-layer metric is non-zero")
			}

			other, err := execute(def, tinyDims, 2, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if other.Failed != 0 {
				t.Fatalf("seed 2: %d ops failed: %v", other.Failed, other.Failures)
			}
			if other.Digest == first.Digest {
				t.Errorf("seed 2 gives seed 1's digest %s: the seed does not reach the inputs", first.Digest)
			}
		})
	}
}
