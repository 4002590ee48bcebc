package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs all four workloads at tiny counts, untraced and traced, so
// the harness keeps compiling and passing its own output checks against the
// layers' public APIs. The set-up and warm-up do not shrink with the counts
// (WNN training, dedup windows to fill), so it takes about 20 s.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole topology four times; skipped with -short")
	}
	t.Chdir(t.TempDir()) // out/ lands in the test's own directory
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := w.run(runConfig{seed: 7, seconds: 0.2, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct() || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted=%d failed=%d checks=%v",
					w.name, trace, res.Attempted, res.Failed, res.CheckErrors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := res.Values[d.Name]
				if !ok && (d.Home == w.name || d.Home == "all" || d.Home == "") {
					t.Errorf("%s trace=%v: metric %s not measured", w.name, trace, d.Name)
				}
				if !trace && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, v)
				}
			}
			for name := range res.Values {
				if !hasMetric(endToEnd, name) && !hasMetric(perLayer, name) {
					t.Errorf("%s trace=%v: metric %s is measured but not declared", w.name, trace, name)
				}
			}
			if trace {
				if _, err := os.Stat("out/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
	if left, _ := os.ReadDir("out"); len(left) != len(workloads) {
		t.Errorf("out/ holds %d entries after the runs, want the %d span files only", len(left), len(workloads))
	}
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSONMatchesHarness keeps the contract file at the repository
// root and the harness's own tables from drifting apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the harness is calibrated to %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || len(spec.Workloads[i].Why) == 0 || len(spec.Workloads[i].Why) > 200 {
			t.Errorf("workload %d = %+v, want %s with a why of at most 200 characters", i, spec.Workloads[i], w.name)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, the harness has %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d = %+v, harness says %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound %v, harness says %v (bounded=%v)", kind, d.Name, g.Bound, d.Bound, bounded)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}
