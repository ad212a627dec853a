package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkDoc is the part of BENCHMARK.json the program reads: the run
// length, the workloads, and the metrics with each end-to-end metric's
// regression bound.
type benchmarkDoc struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which the metric may
	// worsen; per-layer metrics have none.
	Bound *float64 `json:"bound,omitempty"`
}

// loadBenchmark reads BENCHMARK.json from the repository root, which is the
// working directory under bench/run.sh and the parent one under `go run .`
// or `go test` in bench/.
func loadBenchmark() (*benchmarkDoc, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var doc benchmarkDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &doc, nil
	}
	return nil, lastErr
}

func readResults(path string) (*resultsDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &doc, nil
}

// series gathers each (workload, metric)'s values in run order.
func series(doc *resultsDoc) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, r := range doc.Runs {
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// compareFiles prints, per (workload, metric), each side's median and
// quartiles and the verdict on B against baseline A. It returns 1 when any
// metric got worse by more than its bound.
func compareFiles(w io.Writer, pathA, pathB string) int {
	bench, err := loadBenchmark()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compare(w, bench, a, b)
}

func compare(w io.Writer, bench *benchmarkDoc, a, b *resultsDoc) int {
	sa, sb := series(a), series(b)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	status := 0
	for _, wl := range bench.Workloads {
		for _, def := range slices.Concat(bench.EndToEnd, bench.PerLayer) {
			k := [2]string{wl.Name, def.Name}
			va, vb := sa[k], sb[k]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, def)
			if v == "worse" {
				status = 1
			}
			bound := "-"
			if def.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", 100**def.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", wl.Name, def.Name, def.Unit,
				quartileText(va), quartileText(vb), 100*(median(vb)/median(va)-1), bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s, %d runs; B: %s, %d runs\n", a.Stamp.CPUModel, len(a.Runs), b.Stamp.CPUModel, len(b.Runs))
	return status
}

func quartileText(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), quantile(xs, 1, 4), quantile(xs, 3, 4))
}

// verdict judges B against baseline A by the rule the benchmark is held
// to. Where either side's spread (quartile distance over median) is wider
// than the bound, the metric is unresolved unless every B run beats every
// A run. Otherwise B is worse when its median is worse by more than the
// bound, and better when it wins at least nine tenths of the paired runs
// and the medians differ by more than A's quartile distance. Metrics
// without a bound get no verdict.
func verdict(a, b []float64, def metricDef) string {
	if def.Bound == nil {
		return "-"
	}
	sign := 1.0 // +: higher is better
	if def.Better == "lower" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	iqrA := quantile(a, 3, 4) - quantile(a, 1, 4)
	spreadA := iqrA / ma
	spreadB := (quantile(b, 3, 4) - quantile(b, 1, 4)) / mb
	allBetter := slices.Min(b) > slices.Max(a)
	if sign < 0 {
		allBetter = slices.Max(b) < slices.Min(a)
	}
	if spreadA > *def.Bound || spreadB > *def.Bound {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	if sign*(ma-mb)/ma > *def.Bound {
		return "worse"
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := range pairs {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	if float64(wins) >= 0.9*float64(pairs) && sign*(mb-ma) > iqrA {
		return "better"
	}
	return "same"
}
