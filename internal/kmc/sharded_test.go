package kmc

import (
	"fmt"
	"math"
	"testing"

	"sops/internal/chain"
	"sops/internal/config"
	"sops/internal/lattice"
)

// vline builds a vertical line of n particles — n occupied rows, the
// geometry that actually exercises row-stripe sharding (config.Line is
// horizontal: one row, which degenerates to a single stripe).
func vline(n int) *config.Config {
	pts := make([]lattice.Point, n)
	for i := range pts {
		pts[i] = lattice.Point{X: 0, Y: i}
	}
	return config.New(pts...)
}

// TestShardedMatchesMetropolis is the 4.5σ statistical differential test of
// the sharded engine against the sequential Metropolis chain, mirroring
// TestDistributionMatchesMetropolis: R replicas of each engine for the same
// 200·n²-step budget from a vertical line (so every stripe holds real
// work), comparing the mean final perimeter, edge count, and accepted-move
// count within combined standard errors. Stripe decomposition reorders
// events, so trajectories are only statistically — not byte — equivalent;
// matched distributions at matched step counts is the correctness bar.
func TestShardedMatchesMetropolis(t *testing.T) {
	type cell struct {
		lambda float64
		n      int
		shards int
	}
	cells := []cell{
		{2, 100, 3},
		{4, 100, 3},
		{6, 120, 4},
	}
	reps := 16
	budgetFactor := uint64(200)
	if testing.Short() {
		cells = []cell{{4, 80, 3}}
		reps = 8
		budgetFactor = 100
	}
	for _, tc := range cells {
		t.Run(fmt.Sprintf("lambda=%g/n=%d/shards=%d", tc.lambda, tc.n, tc.shards), func(t *testing.T) {
			budget := budgetFactor * uint64(tc.n) * uint64(tc.n)
			var met, shd sampler
			for r := 0; r < reps; r++ {
				seed := uint64(r)*0x9e3779b9 + 29
				mc := chain.MustNew(vline(tc.n), tc.lambda, seed)
				mc.Run(budget)
				met.add(float64(mc.Perimeter()), float64(mc.Edges()), float64(mc.Accepted()))

				sc, err := NewSharded(vline(tc.n), tc.lambda, seed+0xfeed, tc.shards)
				if err != nil {
					t.Fatal(err)
				}
				if sc.Shards() < 2 {
					t.Fatalf("decomposition degenerated to %d stripes; the test geometry should support %d", sc.Shards(), tc.shards)
				}
				sc.Run(budget)
				if sc.steps != budget {
					t.Fatalf("sharded consumed %d equivalent steps, want %d", sc.steps, budget)
				}
				shd.add(float64(sc.g.Perimeter()), float64(sc.g.Edges()), float64(sc.moves))
			}
			for mi, name := range [3]string{"perimeter", "edges", "moves"} {
				m1, se1 := met.meanSE(mi)
				m2, se2 := shd.meanSE(mi)
				bound := 4.5 * math.Hypot(se1, se2)
				if diff := math.Abs(m1 - m2); diff > bound {
					t.Errorf("mean %s: metropolis %.3f±%.3f vs sharded %.3f±%.3f — |Δ|=%.3f exceeds %.3f",
						name, m1, se1, m2, se2, diff, bound)
				}
			}
		})
	}
}

// TestShardedWeightInvariant runs a sharded chain in bursts and verifies,
// after every burst, that the maintained per-shard bookkeeping matches an
// exact recomputation (CheckWeightSums) and that the summed shard weights
// match the sequential tree built fresh on the same configuration.
func TestShardedWeightInvariant(t *testing.T) {
	n := 100
	bursts := 12
	if testing.Short() {
		n, bursts = 60, 6
	}
	sc, err := NewSharded(vline(n), 4, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds of 128 steps make the bursts cross several rebalanceEvery
	// boundaries, so the invariant check sees post-reshard state too.
	sc.roundSteps = 128
	for b := 0; b < bursts; b++ {
		sc.Run(uint64(40 * n))
		if err := sc.CheckWeightSums(); err != nil {
			t.Fatalf("burst %d: %v", b, err)
		}
		got := sc.bndFen.total()
		for _, st := range sc.stripes {
			got += st.fen.total()
		}
		want := MustNew(config.FromGrid(sc.g), 4, 1).TotalWeight()
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("burst %d: sharded total weight %g, sequential tree says %g", b, got, want)
		}
	}
	if sc.events == 0 {
		t.Fatal("no events fired; the invariant test exercised nothing")
	}
}

// TestShardedDeterministic pins the engine's reproducibility contract: two
// runs with identical (σ0, λ, seed, shards) must agree exactly — counters,
// edges, and every particle position — despite the concurrent interior
// phases (stripes touch disjoint state, so scheduling cannot leak in).
func TestShardedDeterministic(t *testing.T) {
	n, steps := 90, uint64(300_000)
	if testing.Short() {
		n, steps = 60, 120_000
	}
	run := func() *Sharded {
		sc, err := NewSharded(vline(n), 4, 77, 3)
		if err != nil {
			t.Fatal(err)
		}
		sc.Run(steps)
		return sc
	}
	a, b := run(), run()
	if a.steps != b.steps || a.events != b.events || a.moves != b.moves || a.g.Edges() != b.g.Edges() {
		t.Fatalf("counters diverged: (%d %d %d %d) vs (%d %d %d %d)",
			a.steps, a.events, a.moves, a.g.Edges(), b.steps, b.events, b.moves, b.g.Edges())
	}
	if ak, bk := config.FromGrid(a.g).Key(), config.FromGrid(b.g).Key(); ak != bk {
		t.Fatalf("final configurations diverged:\n%s\nvs\n%s", ak, bk)
	}
	if a.events == 0 {
		t.Fatal("no events fired; determinism was tested vacuously")
	}
}

// TestShardedDegenerateGeometry: a configuration spanning too few rows must
// fall back to fewer (here one) stripes and still run correctly.
func TestShardedDegenerateGeometry(t *testing.T) {
	sc, err := NewSharded(config.Line(40), 4, 3, 8) // one occupied row
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Shards(); got != 1 {
		t.Fatalf("horizontal line decomposed into %d stripes, want 1", got)
	}
	sc.Run(50_000)
	if err := sc.CheckWeightSums(); err != nil {
		t.Fatal(err)
	}
	if sc.Events() == 0 {
		t.Fatal("single-stripe fallback fired no events")
	}
}

// TestShardedValidation covers the constructor's rejection paths.
func TestShardedValidation(t *testing.T) {
	if _, err := NewSharded(vline(10), 0, 1, 2); err == nil {
		t.Error("accepted λ=0")
	}
	if _, err := NewSharded(vline(10), 4, 1, 0); err == nil {
		t.Error("accepted 0 shards")
	}
	if _, err := NewSharded(config.New(), 4, 1, 2); err == nil {
		t.Error("accepted an empty configuration")
	}
	disc := config.New(lattice.Point{}, lattice.Point{X: 5, Y: 5})
	if _, err := NewSharded(disc, 4, 1, 2); err == nil {
		t.Error("accepted a disconnected configuration")
	}
}
