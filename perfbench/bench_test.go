package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCatalogue pins BENCHMARK.json to the metrics and
// workloads the program emits, names and units both.
func TestSpecMatchesCatalogue(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better %q", c.kind, m.Name, m.Better)
			}
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, through its correctness and determinism gates, and checks the
// emitted metric names against BENCHMARK.json.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var log strings.Builder
			e2e := runEndToEnd(w, 7, 0, true, &log)
			checkResult(t, e2e, spec.EndToEnd, log.String())
			for name, v := range e2e.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, v.Value)
				}
			}
			// Long enough for the CPU profiler, which samples at 100 Hz,
			// to see the tiny iterations.
			traced := runTraced(w, 7, 300*time.Millisecond, true, &log)
			checkResult(t, traced, spec.PerLayer, log.String())
		})
	}
}

func checkResult(t *testing.T, res result, want []specMetric, log string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s [%s]: emitted %+v (present %v)", m.Name, m.Unit, got, ok)
		}
	}
}

// TestRunnerFlagsFailures is the gates' negative test: an iteration
// whose check failed, or whose simulated outcome differs from the first
// iteration's, counts as failed and makes the result incorrect.
func TestRunnerFlagsFailures(t *testing.T) {
	r := &runner{w: workloads[0], log: io.Discard}
	ok := &iteration{sim: map[string]float64{"sim_ms": 1}}
	r.judge("first", ok, true)
	r.judge("same", &iteration{sim: map[string]float64{"sim_ms": 1}}, true)
	r.judge("other seed", &iteration{sim: map[string]float64{"sim_ms": 3}}, false)
	if r.failed != 0 {
		t.Fatalf("clean iterations counted %d failures", r.failed)
	}
	r.judge("drifted", &iteration{sim: map[string]float64{"sim_ms": 2}}, true)
	r.judge("gated", &iteration{sim: ok.sim, gate: errors.New("not linearizable")}, true)
	res := finish(r, endToEnd, map[string]float64{})
	if res.Correct || res.Failed != 2 || res.Attempted != 5 {
		t.Errorf("got correct=%v failed=%d attempted=%d, want false 2 5", res.Correct, res.Failed, res.Attempted)
	}
}
