package sops

import (
	"math"
	"testing"
)

func TestThresholdConstants(t *testing.T) {
	if math.Abs(CompressionThreshold()-(2+math.Sqrt2)) > 1e-15 {
		t.Error("compression threshold must be 2+√2")
	}
	if e := ExpansionThreshold(); e < 2.17 || e > 2.18 {
		t.Errorf("expansion threshold = %v, want ≈2.1716", e)
	}
	if ExpansionThreshold() >= CompressionThreshold() {
		t.Error("thresholds out of order")
	}
}

func TestCompressValidation(t *testing.T) {
	cases := []Options{
		{N: 0, Lambda: 4},
		{N: 10, Lambda: 0},
		{N: 10, Lambda: -3},
		{N: 10, Lambda: 4, Start: "pyramid"},
		{N: 10, Lambda: 4, CrashFraction: 0.5}, // crash on the sequential chain
		{N: 10, Lambda: 4, Engine: EngineAmoebot, CrashFraction: 1.5},
	}
	for i, opts := range cases {
		if _, err := Compress(opts); err == nil {
			t.Errorf("case %d: expected error for %+v", i, opts)
		}
	}
}

func TestCompressSequentialBasic(t *testing.T) {
	res, err := Compress(Options{N: 25, Lambda: 5, Iterations: 150000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 25 || len(res.Points) != 25 {
		t.Fatalf("particle count wrong: %d points", len(res.Points))
	}
	if res.Iterations != 150000 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if res.Alpha < 1 {
		t.Errorf("α = %v < 1 impossible", res.Alpha)
	}
	if res.Alpha > 1.8 {
		t.Errorf("α = %v: no compression at λ=5", res.Alpha)
	}
	if !res.HoleFree {
		t.Error("line start must stay hole-free")
	}
	if res.Rendering == "" {
		t.Error("rendering missing")
	}
	// Lemma 2.3 on the reported numbers.
	if res.Edges != 3*res.N-res.Perimeter-3 {
		t.Errorf("e=%d, p=%d violate Lemma 2.3", res.Edges, res.Perimeter)
	}
	if res.Triangles != 2*res.N-res.Perimeter-2 {
		t.Errorf("t=%d, p=%d violate Lemma 2.4", res.Triangles, res.Perimeter)
	}
}

func TestCompressDeterminism(t *testing.T) {
	opts := Options{N: 20, Lambda: 4, Iterations: 30000, Seed: 77}
	a, err := Compress(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compress(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Perimeter != b.Perimeter || a.Moves != b.Moves {
		t.Error("identical options+seed must reproduce identical results")
	}
}

func TestCompressDistributed(t *testing.T) {
	res, err := Compress(Options{
		N: 20, Lambda: 5, Iterations: 400000, Seed: 3, Engine: EngineAmoebot,
		SnapshotEvery: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Error("distributed run should report rounds")
	}
	if len(res.Snapshots) != 4 {
		t.Errorf("snapshots = %d, want 4", len(res.Snapshots))
	}
	for i := 1; i < len(res.Snapshots); i++ {
		if res.Snapshots[i].Iteration <= res.Snapshots[i-1].Iteration {
			t.Error("snapshot iterations must increase")
		}
	}
	if res.Alpha > 2.0 {
		t.Errorf("α = %v: distributed run failed to compress", res.Alpha)
	}
}

func TestCompressWithCrashes(t *testing.T) {
	res, err := Compress(Options{
		N: 30, Lambda: 5, Iterations: 300000, Seed: 5, Engine: EngineAmoebot,
		CrashFraction: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashed) != 3 {
		t.Errorf("crashed %d, want 3", len(res.Crashed))
	}
	// Crashed particles must still be present in the final configuration.
	occupied := map[Point]bool{}
	for _, p := range res.Points {
		occupied[p] = true
	}
	for _, p := range res.Crashed {
		if !occupied[p] {
			t.Errorf("crashed particle at %v missing from final configuration", p)
		}
	}
}

func TestStartShapes(t *testing.T) {
	for _, shape := range []StartShape{StartLine, StartSpiral, StartRandom, StartTree} {
		res, err := Compress(Options{N: 15, Lambda: 4, Iterations: 5000, Seed: 9, Start: shape})
		if err != nil {
			t.Fatalf("shape %s: %v", shape, err)
		}
		if len(res.Points) != 15 {
			t.Errorf("shape %s: wrong particle count", shape)
		}
	}
	// Spiral start at high λ stays compressed.
	res, err := Compress(Options{N: 19, Lambda: 8, Iterations: 50000, Seed: 4, Start: StartSpiral})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alpha > 1.5 {
		t.Errorf("spiral start at λ=8 drifted to α=%v", res.Alpha)
	}
}

func TestExpansionRegime(t *testing.T) {
	// λ=1.5 < 2.17: even from the compressed spiral the system expands.
	res, err := Compress(Options{N: 30, Lambda: 1.5, Iterations: 400000, Seed: 6, Start: StartSpiral})
	if err != nil {
		t.Fatal(err)
	}
	if res.Beta < 0.5 {
		t.Errorf("β = %v: expected expansion at λ=1.5", res.Beta)
	}
}

func TestPMinPMaxExported(t *testing.T) {
	if PMin(100) != 32 || PMax(100) != 198 {
		t.Errorf("PMin/PMax(100) = %d/%d, want 32/198", PMin(100), PMax(100))
	}
}
