package experiment

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestArtifactsDeterministicAcrossWorkers pins the execution-side contract
// of RunOptions.Workers: the emitted results.jsonl and results.csv are
// byte-identical whatever the worker count (the journal's line order is
// completion order and legitimately varies; the artifacts fold in rep
// order and must not).
func TestArtifactsDeterministicAcrossWorkers(t *testing.T) {
	spec := Spec{
		Scenario: "compress",
		Lambdas:  []float64{2, 5},
		Sizes:    []int{12},
		Engines:  []string{EngineChain, EngineKMC},
		Starts:   []string{"line", "random"},
		Reps:     3, Iterations: 2000, Seed: 99,
	}
	artifacts := func(workers int) (string, string) {
		dir := t.TempDir()
		if _, err := Run(context.Background(), spec, RunOptions{Dir: dir, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		jsonl, err := os.ReadFile(filepath.Join(dir, ResultsJSONL))
		if err != nil {
			t.Fatal(err)
		}
		csv, err := os.ReadFile(filepath.Join(dir, ResultsCSV))
		if err != nil {
			t.Fatal(err)
		}
		return string(jsonl), string(csv)
	}
	j1, c1 := artifacts(1)
	j4, c4 := artifacts(4)
	if j1 != j4 {
		t.Errorf("results.jsonl differs between 1 and 4 workers:\n%s\nvs\n%s", j1, j4)
	}
	if c1 != c4 {
		t.Errorf("results.csv differs between 1 and 4 workers:\n%s\nvs\n%s", c1, c4)
	}
	if j1 == "" || c1 == "" {
		t.Fatal("empty artifacts")
	}
}

// TestRunTaskAllocations bounds the steady-state allocation cost of one
// sweep task. Workers carry arenas, so a task should cost only its metrics
// bag and aggregation bookkeeping — nothing proportional to the simulation
// (engine construction, grids, renderings). The bound is loose on purpose:
// it catches a regression to per-task engine building (dozens of
// allocations plus the ASCII rendering), not map-entry jitter.
func TestRunTaskAllocations(t *testing.T) {
	spec := Spec{Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{10},
		Reps: 24, Iterations: 2000, Seed: 7}
	run := func() {
		if _, err := Run(context.Background(), spec, RunOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm scenario registry and any lazy globals
	allocs := testing.AllocsPerRun(3, run)
	perTask := allocs / float64(spec.Reps)
	if perTask > 40 {
		t.Errorf("sweep task allocated %.1f times (%.0f per Run); want ≤ 40 — did per-task engine construction come back?", perTask, allocs)
	}
}
