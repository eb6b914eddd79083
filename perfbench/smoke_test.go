package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extscc"
)

// TestMain lets the test binary stand in for the benchmark's executable
// when a test starts a child process.
func TestMain(m *testing.M) {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode))
	}
	os.Exit(m.Run())
}

// tiny returns w shrunk to a few thousand nodes and a handful of queries,
// driven through the same code path as the full workload.
func tiny(w workload) workload {
	switch w.name {
	case "contract-web":
		w.gen = extscc.GeneratorSpec{Kind: "web", Nodes: 2000}
		b := *w.batch
		b.NodeBudget = 1500
		w.batch = &b
	case "serve-large":
		w.gen = extscc.GeneratorSpec{Kind: "large", Scale: 50_000}
		w.serve = &serveSpec{clients: 2, warmup: 10, sessions: 2, queries: 30}
	}
	return w
}

// TestWorkloadsSmoke runs every workload on a tiny input, untraced and
// traced, and checks that each reports every metric of its mode and no
// failure.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				o := options{workload: w.name, seed: 3, seconds: 0.01, trace: traced, out: t.TempDir()}
				res, err := measure(context.Background(), tiny(w), o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				defs, vals := endToEnd, res.EndToEnd
				if traced {
					defs, vals = perLayer, res.PerLayer
				}
				for _, d := range defs {
					v, ok := vals[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v (present %v)", d.name, v, ok)
					}
				}
				positive := []string{"setup_s", "run_s", "cpu_s", "peak_rss_mb", "total_ios", "write_amp"}
				if w.serve != nil {
					positive = append(positive, "query_qps", "query_p50_ms", "query_p90_ms", "query_p99_ms")
				}
				for _, name := range positive {
					if res.EndToEnd[name] <= 0 {
						t.Errorf("%s = %v, want > 0", name, res.EndToEnd[name])
					}
				}
				if traced {
					if _, err := os.Stat(res.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
					self := selfTimes(res.spans)
					for i, s := range res.spans {
						if self[i] < 0 || self[i] > s.dur() {
							t.Errorf("span %s: self %v outside [0, %v]", s.Name, self[i], s.dur())
						}
					}
				}
			})
		}
	}
}

// TestChildFailure checks that a child that fails says why: recv fails, and
// wait's error carries the child's last line of standard error.
func TestChildFailure(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.edges")
	ch, err := startChild(context.Background(), "batch", batchRequest{Input: missing})
	if err != nil {
		t.Fatal(err)
	}
	var s batchSample
	if err := ch.recv(&s); err == nil {
		t.Fatal("a failed child replied")
	}
	if err := ch.wait(); err == nil || !strings.Contains(err.Error(), "missing.edges") {
		t.Fatalf("wait = %v, want the child's reason", err)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports, with the same units,
// directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
