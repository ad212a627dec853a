package experiment

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"sops/internal/runner"
)

// -update rewrites the golden files from the current emission code:
//
//	go test ./internal/experiment -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenSpec is the tiny fixed sweep the goldens pin: two λ, one size, two
// reps, snapshots on, fully deterministic from the seed.
func goldenSpec() Spec {
	return Spec{
		Scenario:      "compress",
		Lambdas:       []float64{2, 4},
		Sizes:         []int{8},
		Engines:       []string{EngineChain},
		Iterations:    2000,
		SnapshotEvery: 500,
		Reps:          2,
		Seed:          7,
	}
}

// goldenDigest pins the content address of goldenSpec. If this changes, the
// canonical encoding (or the digest scheme) changed: every serve cache
// entry is invalidated, which must be a deliberate, version-bumped act —
// see digestVersion.
const goldenDigest = "f09e0076634f28fc863dd8bd729a90f5f925fd9b5dca779b22235b4587383a6a"

// elapsedRe masks the one nondeterministic field of the BENCH summary.
var elapsedRe = regexp.MustCompile(`"elapsed_sec": [0-9eE.+-]+`)

// TestGoldenEmission pins the exact bytes of results.csv, results.jsonl,
// and BENCH_compress.json for the fixed sweep. The serve cache serves these
// files byte-identically by digest, so silent format drift would poison
// every cached entry; this test makes drift loud instead. Regenerate with
// -update after a deliberate format change.
func TestGoldenEmission(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), goldenSpec(), RunOptions{Dir: dir, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ResultsCSV, ResultsJSONL, BenchFile("compress")} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == BenchFile("compress") {
			got = elapsedRe.ReplaceAll(got, []byte(`"elapsed_sec": 0`))
		}
		checkGolden(t, filepath.Join("testdata", "golden", name), got)
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden bytes.\nIf the format change is deliberate, rerun with -update AND bump the"+
			" digest version in digest.go — stale cache entries must not be served.\n--- got ---\n%s\n--- want ---\n%s",
			path, clip(got), clip(want))
	}
}

// TestGoldenAblation pins the results.jsonl bytes of a Lemma 3.2 ablation
// sweep: chain M without its degree guard, from a spiral at λ ∈ {1, 4}, so
// the pinned rows hold both holes formed and runs that never form one.
func TestGoldenAblation(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{
		Scenario:   "ablation-degree-guard",
		Lambdas:    []float64{1, 4},
		Sizes:      []int{20},
		Iterations: 4000,
		Reps:       4,
		Seed:       5,
	}
	if _, err := Run(context.Background(), spec, RunOptions{Dir: dir, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, ResultsJSONL))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden", "ablation-degree-guard", ResultsJSONL), got)
}

// TestGoldenDigestPinned: the golden spec's content address is stable. A
// failure here means canonicalization drifted — cached results keyed under
// the old digest are unreachable and half-matching traffic re-simulates.
func TestGoldenDigestPinned(t *testing.T) {
	d, err := Digest(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	if d != goldenDigest {
		t.Fatalf("golden spec digest drifted:\n got %s\nwant %s\nIf deliberate, bump digestVersion and repin.", d, goldenDigest)
	}
	// And the journaled replay reproduces the identical artifact bytes —
	// the property the serve cache's byte-identity promise reduces to.
	dir := t.TempDir()
	spec := goldenSpec()
	if _, err := Run(context.Background(), spec, RunOptions{Dir: dir, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, ResultsJSONL))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, RunOptions{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 0 || res.TasksReplayed != 4 {
		t.Fatalf("second run should fully replay: run=%d replayed=%d", res.TasksRun, res.TasksReplayed)
	}
	second, err := os.ReadFile(filepath.Join(dir, ResultsJSONL))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("replayed results.jsonl differs from the original bytes")
	}
}

func clip(b []byte) []byte {
	const max = 2000
	if len(b) <= max {
		return b
	}
	return append(append([]byte{}, b[:max]...), "…"...)
}

// forageSpec is a forage sweep whose schedule has two food sites, so the
// pins below cover the schedule's sites bytes and the union of two food
// disks that the occupancy metrics read.
func forageSpec() Spec {
	return Spec{
		Scenario:      "forage",
		Sizes:         []int{12},
		Engines:       []string{EngineChain, EngineKMC},
		Iterations:    4000,
		SnapshotEvery: 1000,
		Reps:          1,
		Seed:          11,
		Forage: &runner.ForageSpec{
			Radius:    2,
			FoodSteps: 2000,
			Sites:     []runner.Point{{X: 0, Y: 0}, {X: 3, Y: -1}},
		},
	}
}

// forageDigest pins the content address of forageSpec.
const forageDigest = "b8177f6831e14448656e909bdaad7b7f41a435c944b65161d23706e3f9cb6c4a"

// TestGoldenForageSchedule pins a two-site forage sweep three ways: the
// canonical JSON of its normalized spec, that spec's digest, and the
// sweep's results.jsonl bytes.
func TestGoldenForageSchedule(t *testing.T) {
	spec := forageSpec()
	canon, err := MarshalCanonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden", "forage-two-sites", SpecFile), canon)
	d, err := Digest(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d != forageDigest {
		t.Errorf("forage spec digest drifted:\n got %s\nwant %s", d, forageDigest)
	}
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, RunOptions{Dir: dir, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, ResultsJSONL))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden", "forage-two-sites", ResultsJSONL), got)
}
