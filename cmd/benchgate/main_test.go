package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baseBench = `goos: linux
goarch: amd64
pkg: sops
cpu: Intel(R) Xeon(R)
BenchmarkChainStep-8         	48319488	        24.50 ns/op
BenchmarkChainStep-8         	48319488	        25.10 ns/op
BenchmarkChainStep-8         	48319488	        24.70 ns/op
BenchmarkAmoebotActivation-8 	 2804448	       428.0 ns/op
BenchmarkAmoebotActivation-8 	 2804448	       431.0 ns/op
BenchmarkExperimentSweep-8   	      37	  31540194 ns/op	         1.146 final_alpha_lambda6
BenchmarkDeleted-8           	     100	     10.00 ns/op
PASS
`

const headOK = `pkg: sops
BenchmarkChainStep-8         	48319488	        25.90 ns/op
BenchmarkChainStep-8         	48319488	        25.40 ns/op
BenchmarkAmoebotActivation-8 	 2804448	       430.0 ns/op
BenchmarkExperimentSweep-8   	      37	  30540194 ns/op	         1.146 final_alpha_lambda6
BenchmarkBrandNew-8          	     100	     12.00 ns/op
PASS
`

// headSlow injects a 31% regression into ChainStep.
const headSlow = `pkg: sops
BenchmarkChainStep-8         	48319488	        32.40 ns/op
BenchmarkAmoebotActivation-8 	 2804448	       425.0 ns/op
BenchmarkExperimentSweep-8   	      37	  30540194 ns/op
PASS
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseBenchFile: counts per benchmark, metric filtering, report metrics
// ignored.
func TestParseBenchFile(t *testing.T) {
	got, err := parseBenchFile(writeTemp(t, "base.txt", baseBench), "ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if len(got["sops BenchmarkChainStep-8"]) != 3 {
		t.Errorf("ChainStep samples: %d, want 3", len(got["sops BenchmarkChainStep-8"]))
	}
	if len(got["sops BenchmarkAmoebotActivation-8"]) != 2 {
		t.Errorf("AmoebotActivation samples: %d, want 2", len(got["sops BenchmarkAmoebotActivation-8"]))
	}
	if v := got["sops BenchmarkExperimentSweep-8"][0]; v != 31540194 {
		t.Errorf("ExperimentSweep ns/op = %g", v)
	}
	if _, err := parseBenchFile(writeTemp(t, "empty.txt", "PASS\n"), "ns/op"); err == nil {
		t.Error("a file without benchmark lines must be rejected")
	}
}

// TestGatePassesWithinThreshold: a ~4% drift does not trip a 20% gate, and
// new/deleted benchmarks never gate.
func TestGatePassesWithinThreshold(t *testing.T) {
	base, _ := parseBenchFile(writeTemp(t, "base.txt", baseBench), "ns/op")
	head, _ := parseBenchFile(writeTemp(t, "head.txt", headOK), "ns/op")
	report, failures := compare(base, head, 20)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures %v\n%s", failures, report)
	}
	if !strings.Contains(report, "(gone)") || !strings.Contains(report, "(new)") {
		t.Errorf("report should list one-sided benchmarks:\n%s", report)
	}
}

// TestGateFailsOnInjectedRegression is the scratch-run demonstration the CI
// job relies on: a 31% ns/op regression must fail a 20% gate and name the
// offending benchmark.
func TestGateFailsOnInjectedRegression(t *testing.T) {
	base, _ := parseBenchFile(writeTemp(t, "base.txt", baseBench), "ns/op")
	head, _ := parseBenchFile(writeTemp(t, "head.txt", headSlow), "ns/op")
	report, failures := compare(base, head, 20)
	if len(failures) != 1 || failures[0] != "sops BenchmarkChainStep-8" {
		t.Fatalf("failures = %v, want exactly sops BenchmarkChainStep-8\n%s", failures, report)
	}
	if !strings.Contains(report, "REGRESSION") {
		t.Errorf("report should flag the regression:\n%s", report)
	}
	// The same input passes a looser gate: the threshold is the knob.
	if _, failures := compare(base, head, 40); len(failures) != 0 {
		t.Errorf("40%% gate should tolerate a 31%% regression, got %v", failures)
	}
}

// TestMedianUsedNotMean: one outlier sample among several must not trip the
// gate when the median is stable.
func TestMedianUsedNotMean(t *testing.T) {
	base := map[string][]float64{"BenchmarkX-8": {100, 100, 100}}
	head := map[string][]float64{"BenchmarkX-8": {101, 99, 100, 1000, 98}}
	if _, failures := compare(base, head, 20); len(failures) != 0 {
		t.Errorf("median gate tripped by a single outlier: %v", failures)
	}
}

// twoPackages reports BenchmarkLambdaRefresh from two packages, as the rule
// and kmc packages both do. Only the kmc one regresses.
const twoPackagesBase = `pkg: sops/internal/rule
BenchmarkLambdaRefresh-8 	 100	 250.0 ns/op	 0 allocs/op
BenchmarkLambdaRefresh-8 	 100	 252.0 ns/op	 0 allocs/op
pkg: sops/internal/kmc
BenchmarkLambdaRefresh-8 	 100	 27000 ns/op	 0 allocs/op
BenchmarkLambdaRefresh-8 	 100	 27100 ns/op	 0 allocs/op
`

const twoPackagesHead = `pkg: sops/internal/rule
BenchmarkLambdaRefresh-8 	 100	 251.0 ns/op	 0 allocs/op
BenchmarkLambdaRefresh-8 	 100	 249.0 ns/op	 0 allocs/op
pkg: sops/internal/kmc
BenchmarkLambdaRefresh-8 	 100	 40000 ns/op	 2 allocs/op
BenchmarkLambdaRefresh-8 	 100	 41000 ns/op	 2 allocs/op
`

// TestSameNameInTwoPackages: equal benchmark names from different packages
// keep separate samples, so a regression in one is neither diluted by nor
// blamed on the other.
func TestSameNameInTwoPackages(t *testing.T) {
	base, err := parseBenchFile(writeTemp(t, "base.txt", twoPackagesBase), "ns/op")
	if err != nil {
		t.Fatal(err)
	}
	head, err := parseBenchFile(writeTemp(t, "head.txt", twoPackagesHead), "ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 || len(base["sops/internal/rule BenchmarkLambdaRefresh-8"]) != 2 ||
		len(base["sops/internal/kmc BenchmarkLambdaRefresh-8"]) != 2 {
		t.Fatalf("samples pooled across packages: %v", base)
	}
	report, failures := compare(base, head, 20)
	if len(failures) != 1 || failures[0] != "sops/internal/kmc BenchmarkLambdaRefresh-8" {
		t.Fatalf("failures = %v, want only the kmc benchmark\n%s", failures, report)
	}
}

// TestAllocsFromZeroBase: a benchmark at 0 allocs/op on the base fails as
// soon as the head allocates, at any threshold, and a zero that stays zero
// passes; neither divides by the zero base.
func TestAllocsFromZeroBase(t *testing.T) {
	base, _ := parseBenchFile(writeTemp(t, "base.txt", twoPackagesBase), "allocs/op")
	head, _ := parseBenchFile(writeTemp(t, "head.txt", twoPackagesHead), "allocs/op")
	report, failures := compare(base, head, 1000)
	if len(failures) != 1 || failures[0] != "sops/internal/kmc BenchmarkLambdaRefresh-8" {
		t.Fatalf("failures = %v, want the kmc benchmark that left 0 allocs/op\n%s", failures, report)
	}
	if strings.Contains(report, "Inf") || strings.Contains(report, "NaN") {
		t.Errorf("report divides by a zero base:\n%s", report)
	}
	if _, failures := compare(base, base, 20); len(failures) != 0 {
		t.Errorf("0 → 0 allocs/op must pass, got %v", failures)
	}
}
