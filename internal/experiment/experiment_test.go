package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sops/internal/runner"
)

// testScenario registers a uniquely named synthetic scenario and returns its
// name. Metrics derive only from the task, so runs are deterministic.
var testScenarioSeq atomic.Int64

func testScenario(t *testing.T, run func(Spec, Task) (Metrics, error)) string {
	t.Helper()
	name := fmt.Sprintf("test-%d", testScenarioSeq.Add(1))
	Register(Scenario{Name: name, Description: "test scenario", Run: run})
	return name
}

func TestNormalizeDefaultsAndPointOrder(t *testing.T) {
	sc, err := lookup("compress")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Spec{Scenario: "compress"}.normalized(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Lambdas) != 1 || spec.Lambdas[0] != 4 || len(spec.Sizes) != 1 || spec.Sizes[0] != 50 {
		t.Errorf("global defaults not applied: %+v", spec)
	}
	if spec.Reps != 1 || spec.Starts[0] != "line" || spec.Engines[0] != EngineChain {
		t.Errorf("defaults wrong: %+v", spec)
	}

	spec = Spec{
		Scenario: "compress",
		Lambdas:  []float64{2, 4},
		Sizes:    []int{10, 20},
		Engines:  []string{EngineChain, EngineAmoebot},
	}
	spec, err = spec.normalized(sc)
	if err != nil {
		t.Fatal(err)
	}
	pts := spec.points()
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	spec.Rules, spec.Reps = []string{"compression", "align"}, 3
	if n, err := TaskCount(spec); err != nil || n != len(spec.points())*3 {
		t.Fatalf("TaskCount = %d, %v; want %d", n, err, len(spec.points())*3)
	}
	spec.Reps = math.MaxInt / 2
	if n, err := TaskCount(spec); err == nil {
		t.Fatalf("TaskCount = %d for an overflowing sweep, want an error", n)
	}
	if n, err := TaskCount(Spec{Scenario: "compress", Sizes: []int{10}}); err == nil {
		t.Fatalf("TaskCount = %d for a spec with empty axes, want an error", n)
	}
	// λ outermost, then size, then engine, with the (defaulted) rule axis
	// innermost: the order is part of the journal format and must not drift.
	want := []Point{
		{2, 10, "line", EngineChain, "compression", 0}, {2, 10, "line", EngineAmoebot, "compression", 0},
		{2, 20, "line", EngineChain, "compression", 0}, {2, 20, "line", EngineAmoebot, "compression", 0},
		{4, 10, "line", EngineChain, "compression", 0}, {4, 10, "line", EngineAmoebot, "compression", 0},
		{4, 20, "line", EngineChain, "compression", 0}, {4, 20, "line", EngineAmoebot, "compression", 0},
	}
	for i, p := range pts {
		if p != want[i] {
			t.Errorf("point %d = %+v, want %+v", i, p, want[i])
		}
	}
}

func TestNormalizeRejectsBadAxes(t *testing.T) {
	sc, _ := lookup("compress")
	bad := []Spec{
		{Scenario: "compress", Lambdas: []float64{0}},
		// λ^±10 must stay finite and nonzero, or every task fails at rule
		// compile time after the sweep has been accepted.
		{Scenario: "compress", Lambdas: []float64{math.NaN()}},
		{Scenario: "compress", Lambdas: []float64{math.Inf(1)}},
		{Scenario: "compress", Lambdas: []float64{1e40}},
		{Scenario: "compress", Lambdas: []float64{1e-40}},
		{Scenario: "compress", Sizes: []int{0}},
		{Scenario: "compress", Starts: []string{"pyramid"}},
		{Scenario: "compress", Engines: []string{"quantum"}},
		{Scenario: "compress", CrashFractions: []float64{1.5}},
		// crash > 0 with the chain engine in the grid is a footgun, not a
		// per-task failure.
		{Scenario: "compress", CrashFractions: []float64{0.1}},
	}
	for i, s := range bad {
		if _, err := s.normalized(sc); err == nil {
			t.Errorf("case %d: spec %+v should be rejected", i, s)
		}
	}
	ok := Spec{Scenario: "compress", Engines: []string{EngineAmoebot}, CrashFractions: []float64{0.1}}
	if _, err := ok.normalized(sc); err != nil {
		t.Errorf("amoebot+crash should normalize: %v", err)
	}
}

func TestTaskSeedsDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for pi := 0; pi < 20; pi++ {
		for r := 0; r < 10; r++ {
			s := taskSeed(7, pi, r)
			if s != taskSeed(7, pi, r) {
				t.Fatal("taskSeed not deterministic")
			}
			key := fmt.Sprintf("%d/%d", pi, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and %s", prev, key)
			}
			seen[s] = key
		}
	}
}

func TestRunAggregation(t *testing.T) {
	var calls atomic.Int64
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		calls.Add(1)
		return Metrics{
			"double": 2 * task.Point.Lambda,
			"rep":    float64(task.Rep),
		}, nil
	})
	res, err := Run(context.Background(), Spec{
		Scenario: name,
		Lambdas:  []float64{3, 1, 2},
		Reps:     4,
		Seed:     99,
	}, RunOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 12 || res.TasksRun != 12 || res.TasksReplayed != 0 {
		t.Fatalf("calls=%d run=%d replayed=%d, want 12/12/0", calls.Load(), res.TasksRun, res.TasksReplayed)
	}
	if len(res.Summaries) != 3 {
		t.Fatalf("got %d summaries", len(res.Summaries))
	}
	// Summaries follow spec axis order, not sorted order.
	for i, wantLam := range []float64{3, 1, 2} {
		s := res.Summaries[i]
		if s.Point.Lambda != wantLam {
			t.Fatalf("summary %d λ=%v, want %v", i, s.Point.Lambda, wantLam)
		}
		mean, err := s.Mean("double")
		if err != nil || mean != 2*wantLam {
			t.Errorf("λ=%v mean double = %v (%v)", wantLam, mean, err)
		}
		rep := s.ByMetric["rep"]
		if rep.N != 4 || rep.Min != 0 || rep.Max != 3 {
			t.Errorf("λ=%v rep summary %+v", wantLam, rep)
		}
		if s.Failures != 0 {
			t.Errorf("unexpected failures at λ=%v", wantLam)
		}
	}
	if _, err := res.Summaries[0].Mean("missing"); err == nil {
		t.Error("missing metric should error")
	}
}

func TestRunCountsFailures(t *testing.T) {
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		if task.Rep%2 == 0 {
			return nil, fmt.Errorf("boom")
		}
		return Metrics{"ok": 1}, nil
	})
	res, err := Run(context.Background(), Spec{Scenario: name, Reps: 4, Seed: 1}, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 2 || res.Summaries[0].Failures != 2 {
		t.Errorf("failures = %d/%d, want 2/2", res.Failures, res.Summaries[0].Failures)
	}
	if s := res.Summaries[0].ByMetric["ok"]; s.N != 2 {
		t.Errorf("ok samples = %d, want 2", s.N)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Scenario: "no-such"}, RunOptions{}); err == nil {
		t.Fatal("unknown scenario must error")
	}
}

func TestRunEmitsArtifacts(t *testing.T) {
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		return Metrics{"v": task.Point.Lambda + float64(task.Rep)}, nil
	})
	dir := t.TempDir()
	res, err := Run(context.Background(), Spec{
		Scenario: name, Lambdas: []float64{1, 2}, Reps: 2, Seed: 5,
	}, RunOptions{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{SpecFile, JournalFile, ResultsJSONL, ResultsCSV, BenchFile(name)} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("artifact %s missing: %v", f, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, BenchFile(name)))
	if err != nil {
		t.Fatal(err)
	}
	var decoded Result
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("BENCH json does not parse: %v", err)
	}
	if decoded.Spec.Scenario != name || len(decoded.Summaries) != 2 {
		t.Errorf("BENCH content wrong: %+v", decoded)
	}
	if got, _ := decoded.Summaries[1].Mean("v"); got != res.Summaries[1].ByMetric["v"].Mean {
		t.Error("BENCH summaries disagree with returned summaries")
	}
	csv, err := os.ReadFile(filepath.Join(dir, ResultsCSV))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 3 { // header + one metric row per point
		t.Errorf("csv has %d lines, want 3:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "scenario,lambda,n,") {
		t.Errorf("csv header wrong: %s", lines[0])
	}
}

// TestCSVKeepsFullyFailedPoints: a point whose every replication failed
// still appears in results.csv with its failures count, so the CSV grid
// never silently shrinks relative to results.jsonl.
func TestCSVKeepsFullyFailedPoints(t *testing.T) {
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		if task.Point.Lambda == 2 {
			return nil, fmt.Errorf("always fails")
		}
		return Metrics{"v": 1}, nil
	})
	dir := t.TempDir()
	if _, err := Run(context.Background(), Spec{
		Scenario: name, Lambdas: []float64{1, 2}, Reps: 2, Seed: 3,
	}, RunOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, ResultsCSV))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 3 { // header + λ=1 metric row + λ=2 failures-only row
		t.Fatalf("csv has %d lines, want 3:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[2], name+",2,") || !strings.HasSuffix(lines[2], ",2") {
		t.Errorf("failed point row wrong: %q", lines[2])
	}
}

func TestRunRejectsSpecMismatch(t *testing.T) {
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		return Metrics{"v": 1}, nil
	})
	dir := t.TempDir()
	if _, err := Run(context.Background(), Spec{Scenario: name, Seed: 1}, RunOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Spec{Scenario: name, Seed: 2}, RunOptions{Dir: dir}); err == nil {
		t.Fatal("changed spec must be rejected on resume")
	}
	// Identical spec is accepted and fully replayed.
	res, err := Run(context.Background(), Spec{Scenario: name, Seed: 1}, RunOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 0 || res.TasksReplayed != 1 {
		t.Errorf("rerun executed %d tasks, replayed %d; want 0/1", res.TasksRun, res.TasksReplayed)
	}
}

func TestLoadSpecRoundTrip(t *testing.T) {
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		return Metrics{"v": 1}, nil
	})
	dir := t.TempDir()
	spec := Spec{Scenario: name, Lambdas: []float64{1.5}, Sizes: []int{7}, Reps: 2, Seed: 3}
	if _, err := Run(context.Background(), spec, RunOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Scenario != name || loaded.Reps != 2 || loaded.Seed != 3 || loaded.Lambdas[0] != 1.5 {
		t.Errorf("loaded spec %+v", loaded)
	}
	if _, err := LoadSpec(t.TempDir()); err == nil {
		t.Error("LoadSpec on an empty dir must error")
	}
}

func TestDefaultSpecAndList(t *testing.T) {
	infos := List()
	names := map[string]bool{}
	for _, in := range infos {
		names[in.Name] = true
		if in.Description == "" {
			t.Errorf("scenario %s lacks a description", in.Name)
		}
	}
	for _, want := range []string{"compress", "phase", "fault-tolerance", "scaling", "ablation-degree-guard", "baseline-hexagon", "mixing"} {
		if !names[want] {
			t.Errorf("built-in scenario %q not registered", want)
		}
	}
	spec, err := DefaultSpec("phase")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Lambdas) != 11 {
		t.Errorf("phase default λ grid has %d entries, want 11", len(spec.Lambdas))
	}
	if _, err := DefaultSpec("no-such"); err == nil {
		t.Error("DefaultSpec must reject unknown scenarios")
	}
}

// TestBuiltinScenariosSmoke runs every built-in scenario at a tiny size so a
// registry entry can never silently rot.
func TestBuiltinScenariosSmoke(t *testing.T) {
	specs := map[string]Spec{
		"compress":              {Scenario: "compress", Sizes: []int{12}, Iterations: 4000},
		"phase":                 {Scenario: "phase", Lambdas: []float64{2, 4}, Sizes: []int{10}, Iterations: 3000},
		"fault-tolerance":       {Scenario: "fault-tolerance", Sizes: []int{12}, Iterations: 6000},
		"scaling":               {Scenario: "scaling", Sizes: []int{8}},
		"ablation-degree-guard": {Scenario: "ablation-degree-guard", Iterations: 2000},
		"baseline-hexagon":      {Scenario: "baseline-hexagon", Sizes: []int{12}},
		"mixing":                {Scenario: "mixing", Lambdas: []float64{4}, Sizes: []int{10}, Iterations: 5000},
	}
	for name, spec := range specs {
		spec.Seed = 1
		res, err := Run(context.Background(), spec, RunOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failures > 0 {
			t.Errorf("%s: %d failed tasks", name, res.Failures)
		}
		for _, s := range res.Summaries {
			if len(s.ByMetric) == 0 && s.Failures == 0 {
				t.Errorf("%s: point %s produced no metrics", name, s.Point)
			}
			for mname, m := range s.ByMetric {
				if math.IsNaN(m.Mean) {
					t.Errorf("%s: metric %s is NaN", name, mname)
				}
			}
		}
	}
}

// TestKMCEngineAxis: the kmc engine runs through the compress, scaling, and
// mixing scenarios, crash fractions reject it, and an engine-comparison
// sweep produces kmc means consistent with the chain engine's.
func TestKMCEngineAxis(t *testing.T) {
	spec := Spec{
		Scenario:   "compress",
		Lambdas:    []float64{5},
		Sizes:      []int{16},
		Engines:    []string{EngineChain, EngineKMC},
		Iterations: 60_000,
		Reps:       6,
		Seed:       3,
	}
	res, err := Run(context.Background(), spec, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures > 0 {
		t.Fatalf("%d failed tasks", res.Failures)
	}
	if len(res.Summaries) != 2 {
		t.Fatalf("%d summaries, want 2 (one per engine)", len(res.Summaries))
	}
	var means [2]float64
	for i, s := range res.Summaries {
		m, err := s.Mean("perimeter")
		if err != nil {
			t.Fatalf("%s: %v", s.Point, err)
		}
		means[i] = m
	}
	// Same process in distribution: at λ=5, n=16 the equilibrium perimeter
	// is ≈ 16–20; a factor-1.5 band catches engine-level disagreement
	// without flaking on 6 reps.
	if means[0] > 1.5*means[1] || means[1] > 1.5*means[0] {
		t.Errorf("engine perimeter means diverge: chain %.2f vs kmc %.2f", means[0], means[1])
	}

	for _, scenario := range []string{"scaling", "mixing"} {
		spec := Spec{Scenario: scenario, Lambdas: []float64{4}, Sizes: []int{10},
			Engines: []string{EngineKMC}, Iterations: 6000, Seed: 1}
		res, err := Run(context.Background(), spec, RunOptions{})
		if err != nil {
			t.Fatalf("%s with kmc: %v", scenario, err)
		}
		if res.Failures > 0 {
			t.Errorf("%s with kmc: %d failed tasks", scenario, res.Failures)
		}
	}

	bad := Spec{Scenario: "compress", Engines: []string{EngineKMC}, CrashFractions: []float64{0.1}}
	if _, err := Run(context.Background(), bad, RunOptions{}); err == nil {
		t.Error("crash fraction with the kmc engine must be rejected")
	}
}

// TestScenarioDeterminism: same spec, different worker counts, identical
// summary bytes.
func TestScenarioDeterminism(t *testing.T) {
	spec := Spec{Scenario: "compress", Lambdas: []float64{2, 5}, Sizes: []int{10}, Iterations: 3000, Reps: 3, Seed: 42}
	run := func(workers int) []byte {
		res, err := Run(context.Background(), spec, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res.Summaries)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := run(1), run(4)
	if string(a) != string(b) {
		t.Fatalf("summaries differ across worker counts:\n%s\n%s", a, b)
	}
}

// TestScenariosPollInterrupt: the scenarios that drive an engine directly
// poll the task's interrupt as the arena's runs do, so a cancelled sweep
// does not wait for their tasks to finish.
func TestScenariosPollInterrupt(t *testing.T) {
	for _, name := range []string{"scaling", "mixing", "ablation-degree-guard"} {
		sc, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Spec{Scenario: name, Sizes: []int{10}}.normalized(sc)
		if err != nil {
			t.Fatal(err)
		}
		task := Task{Point: spec.points()[0], Seed: 1, Arena: runner.NewArena(), Interrupt: func() bool { return true }}
		if _, err := sc.Run(spec, task); !errors.Is(err, runner.ErrInterrupted) {
			t.Fatalf("%s: err %v, want runner.ErrInterrupted", name, err)
		}
	}
}
