package chain

import (
	"fmt"
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
						for i := range fast.Pts {
							if fast.Pts[i] != ref.points[i] {
								t.Fatalf("seed %d step %d: particle %d at %v vs %v",
									seed, step, i, fast.Pts[i], ref.points[i])
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

// TestRunMatchesReference pins Run's call-free loop to the map-backed
// reference chain, which draws through math/rand/v2 and shares no code with
// the loop. For compression and every rule.CompressionVariant, from line,
// spiral and random starts, Run in chunks of 1, 7, 997 and 2²⁰ iterations
// must end where refChain gets by stepping over the same budget: the same
// particle at every index, the same Steps, Accepted, Energy and Edges, and
// the same next word from the generator. The pair start random-walks far
// enough to grow the grid window mid-run under most variants, and its n = 2
// takes the particle draw's power-of-two mask path.
func TestRunMatchesReference(t *testing.T) {
	const budget = 8000
	starts := []struct {
		name   string
		sigma0 *config.Config
		lambda float64
	}{
		{"line", config.Line(30), 4},
		{"spiral", config.Spiral(25), 0.5},
		{"random", config.RandomConnected(rand.New(rand.NewPCG(3, 42)), 35), 2},
		{"pair", config.Line(2), 1},
	}
	for _, st := range starts {
		for v := 0; v < 8; v++ {
			degreeGuard, prop1, prop2 := v&4 != 0, v&2 != 0, v&1 != 0
			ru := rule.CompressionVariant(st.lambda, degreeGuard, prop1, prop2)
			if v == 7 {
				ru = rule.Compression(st.lambda)
			}
			name := fmt.Sprintf("%s/guard=%v,p1=%v,p2=%v", st.name, degreeGuard, prop1, prop2)
			t.Run(name, func(t *testing.T) {
				seed := uint64(v + 11)
				ref := newRefChain(st.sigma0, st.lambda, seed, degreeGuard, prop1, prop2)
				for k := 0; k < budget; k++ {
					ref.Step()
				}
				refNext := ref.rng.Uint64()
				for _, chunk := range []uint64{1, 7, 997, 1 << 20} {
					c := MustNewWithRule(st.sigma0, ru, seed)
					var moved uint64
					for left := uint64(budget); left > 0; {
						k := min(chunk, left)
						moved += c.Run(k)
						left -= k
					}
					if c.Steps() != budget || c.Accepted() != ref.accepted || moved != ref.accepted {
						t.Fatalf("chunk %d: steps %d, accepted %d, Run returned %d; reference %d steps, %d accepted",
							chunk, c.Steps(), c.Accepted(), moved, budget, ref.accepted)
					}
					if c.Energy() != ref.edges || c.Edges() != ref.edges {
						t.Fatalf("chunk %d: energy %d, edges %d; reference edges %d", chunk, c.Energy(), c.Edges(), ref.edges)
					}
					for i := range ref.points {
						if c.Pts[i] != ref.points[i] {
							t.Fatalf("chunk %d: particle %d at %v, reference %v", chunk, i, c.Pts[i], ref.points[i])
						}
					}
					if next := c.Rng.Uint64(); next != refNext {
						t.Fatalf("chunk %d: next draw %#x, reference %#x", chunk, next, refNext)
					}
				}
			})
		}
	}
}
