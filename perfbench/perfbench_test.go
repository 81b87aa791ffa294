package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command when the smoke
// test launches workload processes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload, untraced and traced, on tiny plans
// through the whole command: set-up probes, the measured child, its
// checks and the result line.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			w, trace := w, trace
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				t.Parallel()
				var out, errb bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "0", "--trace", trace,
					"--smoke", "--workdir", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                               `json:"correct"`
					Attempted int                                `json:"attempted"`
					Failed    int                                `json:"failed"`
					Metrics   map[string]struct{ Value float64 } `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct %t, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer()
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if _, ok := res.Metrics[m.name]; !ok {
						t.Errorf("metric %s missing", m.name)
					}
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists the metrics this
// command reports, with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if lookup(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %s is not one the command has (%s)", w.Name, strings.Join(workloadNames(), ", "))
		}
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, command reports %d", len(got), kind, len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("BENCHMARK.json %s metric %d is %+v, command reports %+v", kind, i, g, m)
			}
		}
	}
	compare("end-to-end", spec.EndToEnd, endToEnd)
	compare("per-layer", spec.PerLayer, perLayer())
}

func TestQuantileAndCoverage(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 %v, want 5", got)
	}
	// Overlapping children cover their union, clipped to the parent.
	if got := covered([][2]int64{{2, 5}, {4, 8}, {9, 20}}, 0, 10); got != 7 {
		t.Errorf("covered %d, want 7", got)
	}
	if id, ok := journalID([]byte(`cpwal1 0a1b2c3d {"id":"micro@7","status":"ok"}` + "\n")); !ok || id != "micro@7" {
		t.Errorf("journalID = %q, %t", id, ok)
	}
}
