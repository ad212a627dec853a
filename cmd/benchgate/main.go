// Command benchgate is the benchmark-regression gate behind the CI bench
// job: it parses two `go test -bench` output files (typically merge-base and
// PR head, each run with -count N for stable medians), compares the
// per-benchmark median of one metric, and exits non-zero when any benchmark
// present in both files regressed by more than the threshold. Benchmarks are
// keyed by package and name (from the `pkg:` header lines), so two packages
// that report the same benchmark name never pool their samples. A benchmark
// whose base median is zero (typically 0 allocs/op) regresses as soon as its
// head median is above zero, whatever the threshold.
//
// Usage:
//
//	benchgate [-threshold 20] [-metric ns/op] base.txt head.txt
//	benchgate -metric allocs/op base.txt head.txt   # with -benchmem output
//
// benchstat (golang.org/x/perf) remains the human-readable report in the CI
// log; benchgate is the self-contained pass/fail decision, dependency-free
// so it can run (and be tested) without network access.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		threshold = flag.Float64("threshold", 20, "maximum allowed median regression, percent")
		metric    = flag.String("metric", "ns/op", "benchmark metric to gate on")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-threshold pct] [-metric ns/op] base.txt head.txt")
		os.Exit(2)
	}
	base, err := parseBenchFile(flag.Arg(0), *metric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	head, err := parseBenchFile(flag.Arg(1), *metric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	report, failures := compare(base, head, *threshold)
	fmt.Print(report)
	if len(failures) > 0 {
		fmt.Printf("benchgate: FAIL — %d benchmark(s) regressed more than %.0f%% (or rose from 0) in %s: %s\n",
			len(failures), *threshold, *metric, strings.Join(failures, ", "))
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok (%s, threshold %.0f%%)\n", *metric, *threshold)
}

// parseBenchFile collects, per benchmark, every sample of the metric from a
// `go test -bench` output file. The key is "<pkg> <name>", the package taken
// from the latest `pkg:` line; results before any such line key by name
// alone.
func parseBenchFile(path, metric string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	pkg := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if name, v, ok := parseBenchLine(line, metric); ok {
			if pkg != "" {
				name = pkg + " " + name
			}
			out[name] = append(out[name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no %q benchmark results found", path, metric)
	}
	return out, nil
}

// parseBenchLine extracts the metric value from one benchmark result line,
// e.g. "BenchmarkChainStep-8  48319488  24.55 ns/op  0 B/op". The metric
// value immediately precedes its unit token.
func parseBenchLine(line, metric string) (name string, v float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	for i := 2; i < len(fields); i++ {
		if fields[i] != metric {
			continue
		}
		v, err := strconv.ParseFloat(fields[i-1], 64)
		if err != nil {
			return "", 0, false
		}
		return fields[0], v, true
	}
	return "", 0, false
}

// compare renders a delta table over the benchmarks common to both runs and
// returns the names whose median regressed beyond threshold percent, or rose
// from a zero base median. Benchmarks present on only one side are listed
// but never gate (they are new or deleted on the PR).
func compare(base, head map[string][]float64, threshold float64) (report string, failures []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-60s %14s %14s %9s\n", "benchmark", "base median", "head median", "delta")
	for _, name := range names {
		mb := median(base[name])
		hs, ok := head[name]
		if !ok {
			fmt.Fprintf(&b, "%-60s %14.4g %14s %9s\n", name, mb, "(gone)", "")
			continue
		}
		mh := median(hs)
		change, regressed := "+0.0%", false
		switch {
		case mb == 0 && mh > 0:
			// No relative change exists from zero: any rise regresses.
			change, regressed = "from 0", true
		case mb != 0:
			delta := 100 * (mh - mb) / mb
			change, regressed = fmt.Sprintf("%+.1f%%", delta), delta > threshold
		}
		mark := ""
		if regressed {
			mark = "  << REGRESSION"
			failures = append(failures, name)
		}
		fmt.Fprintf(&b, "%-60s %14.4g %14.4g %9s%s\n", name, mb, mh, change, mark)
	}
	for name := range head {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(&b, "%-60s %14s %14.4g %9s\n", name, "(new)", median(head[name]), "")
		}
	}
	return b.String(), failures
}

// median of a non-empty sample; the mean of the middle pair for even sizes.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
