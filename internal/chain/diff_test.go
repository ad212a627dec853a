package chain

import (
	"math/rand/v2"
	"testing"

	"sops/internal/config"
	"sops/internal/rule"
)

// TestEnginesProduceIdenticalTrajectories runs the grid engine and the
// map-backed reference chain (refChain) from identical (σ0, λ, seed) and
// asserts step-for-step equality: same accept/reject decision, same
// particle positions, same incremental edge count, and (sampled) same
// perimeter and hole status. This is the contract that makes the grid
// engine invisible: fixed inputs and seed keep producing byte-identical
// results.
func TestEnginesProduceIdenticalTrajectories(t *testing.T) {
	type scenario struct {
		name   string
		start  func(rng *rand.Rand) *config.Config
		lambda float64
		steps  int
	}
	scenarios := []scenario{
		{"line/compress", func(*rand.Rand) *config.Config { return config.Line(30) }, 4, 6000},
		{"line/expand", func(*rand.Rand) *config.Config { return config.Line(20) }, 0.5, 6000},
		{"spiral/critical", func(*rand.Rand) *config.Config { return config.Spiral(25) }, 3, 6000},
		{"eden/holes", func(rng *rand.Rand) *config.Config { return config.RandomConnected(rng, 35) }, 4, 6000},
		{"tree", func(rng *rand.Rand) *config.Config { return config.RandomTree(rng, 20) }, 2, 6000},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewPCG(seed, 42))
				sigma0 := sc.start(rng)
				fast := MustNew(sigma0, sc.lambda, seed)
				ref := newRefChain(sigma0, sc.lambda, seed, true, true, true)
				for step := 0; step < sc.steps; step++ {
					fm, rm := fast.Step(), ref.Step()
					if fm != rm {
						t.Fatalf("seed %d step %d: fast moved=%v, reference moved=%v", seed, step, fm, rm)
					}
					if fast.Edges() != ref.edges {
						t.Fatalf("seed %d step %d: edges %d vs %d", seed, step, fast.Edges(), ref.edges)
					}
					if fm {
						for i := range fast.points {
							if fast.points[i] != ref.points[i] {
								t.Fatalf("seed %d step %d: particle %d at %v vs %v",
									seed, step, i, fast.points[i], ref.points[i])
							}
						}
					}
					// Holes never reform under the degree guard (Lemma 3.2),
					// so the chain's sticky hole-free flag must match a
					// from-scratch check.
					if step%500 == 0 {
						if fast.Perimeter() != ref.cfg.Perimeter() {
							t.Fatalf("seed %d step %d: perimeter %d vs %d",
								seed, step, fast.Perimeter(), ref.cfg.Perimeter())
						}
						if fast.HoleFree() == ref.cfg.HasHoles() {
							t.Fatalf("seed %d step %d: holeFree %v, reference has holes %v",
								seed, step, fast.HoleFree(), ref.cfg.HasHoles())
						}
					}
				}
				if fast.Accepted() != ref.accepted {
					t.Fatalf("seed %d: accepted %d vs %d", seed, fast.Accepted(), ref.accepted)
				}
				fp, rp := fast.Config().Points(), ref.cfg.Points()
				for i := range fp {
					if fp[i] != rp[i] {
						t.Fatalf("seed %d: final point %d = %v vs %v", seed, i, fp[i], rp[i])
					}
				}
			}
		})
	}
}

// TestAblationEnginesAgree repeats the differential run with each condition
// of M's step 6 ablated: the grid engine runs rule.CompressionVariant, the
// reference chain the same switches on its own predicates.
func TestAblationEnginesAgree(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		degreeGuard, prop1, prop2 bool
	}{
		{"noDegreeGuard", false, true, true},
		{"noProperty1", true, false, true},
		{"noProperty2", true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sigma0 := config.Spiral(20)
			fast := MustNewWithRule(sigma0, rule.CompressionVariant(1, tc.degreeGuard, tc.prop1, tc.prop2), 7)
			ref := newRefChain(sigma0, 1, 7, tc.degreeGuard, tc.prop1, tc.prop2)
			for step := 0; step < 5000; step++ {
				if fm, rm := fast.Step(), ref.Step(); fm != rm {
					t.Fatalf("step %d: fast moved=%v, reference moved=%v", step, fm, rm)
				}
				if fast.Edges() != ref.edges {
					t.Fatalf("step %d: edges %d vs %d", step, fast.Edges(), ref.edges)
				}
			}
			if fast.Config().Key() != ref.cfg.Key() {
				t.Fatal("final configurations differ")
			}
		})
	}
}

// TestGridStateMatchesView spot-checks that the grid engine's incremental
// bookkeeping matches a from-scratch recomputation on its own materialized
// configuration mid-run.
func TestGridStateMatchesView(t *testing.T) {
	c := MustNew(config.Line(40), 4, 3)
	for batch := 0; batch < 20; batch++ {
		c.Run(2000)
		v := c.Config()
		if got, want := c.Edges(), v.Edges(); got != want {
			t.Fatalf("batch %d: incremental edges %d, recomputed %d", batch, got, want)
		}
		if got, want := c.Perimeter(), v.Perimeter(); got != want {
			t.Fatalf("batch %d: perimeter %d, recomputed %d", batch, got, want)
		}
		if !v.Connected() {
			t.Fatalf("batch %d: configuration disconnected", batch)
		}
	}
}
