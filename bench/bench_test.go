package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsEmitBenchmarkMetrics runs every workload at its small size,
// untraced and traced, through the same entry point the benchmark command
// uses, and holds the output to the contract BENCHMARK.json states: the
// last line is the JSON result, every metric of the mode is present with
// its unit and nothing else is, and every check passes.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	doc, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	var listed, have []string
	for _, w := range doc.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(listed, have) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program runs %v", listed, have)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, -seconds defaults to %d", doc.RunSeconds, runSeconds)
	}

	for _, trace := range []bool{false, true} {
		want := doc.EndToEnd
		if trace {
			want = doc.PerLayer
		}
		for _, w := range workloads {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				dir := t.TempDir()
				var stdout bytes.Buffer
				cfg := runConfig{seed: 1, budget: 150 * time.Millisecond, trace: trace, small: true}
				code := runOne(context.Background(), &stdout, w, cfg, dir)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d:\n%s", code, stdout.String())
				}

				var keys map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if len(keys) != 4 {
					t.Errorf("result has keys %v, want correct, attempted, failed, metrics", keys)
				}
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d:\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, def := range want {
					m, ok := res.Metrics[def.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", def.Name)
					case m.Unit != def.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", def.Name, m.Unit, def.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", def.Name, m.Value)
					case !slices.Contains(lines, fmt.Sprintf("%s %s %s %s", w.name, def.Name, formatValue(m.Value), m.Unit)):
						t.Errorf("no %q line for metric %s", "<workload> <metric> <value> <unit>", def.Name)
					}
				}

				if !trace {
					return
				}
				raw, err := os.ReadFile(filepath.Join(dir, traceFile))
				if err != nil {
					t.Fatal(err)
				}
				var tdoc resultsDoc
				if err := json.Unmarshal(raw, &tdoc); err != nil {
					t.Fatal(err)
				}
				if len(tdoc.Runs) != 1 || len(tdoc.Runs[0].Spans) == 0 || tdoc.Runs[0].Overhead == nil {
					t.Errorf("trace.json holds no spans or no tracing overhead")
				}
			})
		}
	}
}

func TestQuantileMatchesPythonStatistics(t *testing.T) {
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) and n=10.
	for _, c := range []struct {
		i, n int
		want float64
	}{{1, 4, 2.75}, {2, 4, 5.5}, {3, 4, 8.25}, {9, 10, 9.9}} {
		if got := quantile(xs, c.i, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%d/%d) = %v, want %v", c.i, c.n, got, c.want)
		}
	}
	if got := quantile([]float64{3.5, 1.25}, 1, 4); got != 0.6875 {
		t.Errorf("two-sample q1 = %v, want 0.6875", got)
	}
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := metricDef{Name: "cold_ms_p50", Better: "lower", Bound: &bound}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: &bound}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * k
		}
		return out
	}
	for _, c := range []struct {
		name string
		def  metricDef
		b    []float64
		want string
	}{
		{"unchanged", lower, scale(1), "same"},
		{"slower within bound", lower, scale(1.05), "same"},
		{"slower beyond bound", lower, scale(1.2), "worse"},
		{"faster in every pair", lower, scale(0.9), "better"},
		{"throughput drop", higher, scale(0.8), "worse"},
		{"throughput gain", higher, scale(1.1), "better"},
		{"too noisy", lower, []float64{60, 140, 100, 70, 130, 100, 90, 110, 100, 100}, "unresolved"},
	} {
		if got := verdict(base, c.b, c.def); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := verdict(base, base, metricDef{Name: "engine.ns_per_step"}); got != "-" {
		t.Errorf("unbounded metric got verdict %q", got)
	}
}

func TestFoldBoolArgs(t *testing.T) {
	got := foldBoolArgs([]string{"--workload", "kmc-spiral", "--trace", "1", "--seconds", "10"})
	want := []string{"--workload", "kmc-spiral", "--trace=1", "--seconds", "10"}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	got = foldBoolArgs([]string{"-trace", "-seed", "3"})
	if want := []string{"-trace", "-seed", "3"}; !slices.Equal(got, want) {
		t.Errorf("bare -trace: got %v, want %v", got, want)
	}
}
