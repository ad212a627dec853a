package kmc

import (
	"math"
	"math/rand/v2"
	"testing"

	"sops/internal/config"
	"sops/internal/enumerate"
	"sops/internal/lattice"
	"sops/internal/move"
	"sops/internal/rule"
)

// bruteSlotWeight computes the acceptance weight of the move (l, l+d) on a
// map-backed configuration straight from the paper's definitions: zero
// unless the move is valid per step 6 conditions (1) and (2), otherwise the
// Metropolis acceptance min(1, λ^{e′−e}).
func bruteSlotWeight(cfg *config.Config, l lattice.Point, d lattice.Dir, lambda float64) float64 {
	if !move.Valid(cfg, l, d) {
		return 0
	}
	e := cfg.Degree(l)
	ep := cfg.DegreeExcluding(l.Neighbor(d), l)
	return math.Min(1, math.Pow(lambda, float64(ep-e)))
}

// TestWeightsMatchBruteForceOverStateSpace: for every state of Ω* at small
// n, the engine's per-slot, per-particle, and total weights must equal the
// brute-force enumeration over the reference Property 1/2 implementations.
func TestWeightsMatchBruteForceOverStateSpace(t *testing.T) {
	sizes := []int{2, 3, 4, 5}
	if testing.Short() {
		sizes = []int{2, 3, 4}
	}
	for _, n := range sizes {
		for _, lambda := range []float64{0.7, 2, 4} {
			for si, sigma := range enumerate.AllHoleFree(n) {
				c := MustNew(sigma, lambda, 1)
				pts := c.Points()
				var wantTotal float64
				for i, p := range pts {
					ws := c.SlotWeights(i)
					var wantP float64
					for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
						want := bruteSlotWeight(sigma, p, d, lambda)
						if ws[d] != want {
							t.Fatalf("n=%d λ=%g state %d particle %v dir %v: slot weight %g, brute force %g",
								n, lambda, si, p, d, ws[d], want)
						}
						wantP += ws[d]
					}
					if got := c.ParticleWeight(i); got != wantP {
						t.Fatalf("n=%d λ=%g state %d particle %v: maintained weight %g, want %g",
							n, lambda, si, p, got, wantP)
					}
					wantTotal += wantP
				}
				if got := c.TotalWeight(); math.Abs(got-wantTotal) > 1e-9*(1+wantTotal) {
					t.Fatalf("n=%d λ=%g state %d: total weight %g, want %g", n, lambda, si, got, wantTotal)
				}
			}
		}
	}
}

// TestIncrementalWeightsAlongTrajectory: after every applied event the
// incrementally maintained per-particle weights must equal a brute-force
// recomputation on the current configuration — the dirty-neighborhood
// invalidation may not miss a cell.
func TestIncrementalWeightsAlongTrajectory(t *testing.T) {
	events := 600
	if testing.Short() {
		events = 150
	}
	for _, tc := range []struct {
		start  *config.Config
		lambda float64
	}{
		{config.Line(25), 4},
		{config.Spiral(30), 0.8}, // expanding: exercises window growth
		{config.RandomConnected(rand.New(rand.NewPCG(3, 9)), 24), 3},
	} {
		c := MustNew(tc.start, tc.lambda, 42)
		for ev := 0; ev < events; {
			ev += int(c.Run(50))
			cfg := c.Config()
			pts := c.Points()
			for i, p := range pts {
				var want float64
				for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
					want += bruteSlotWeight(cfg, p, d, tc.lambda)
				}
				if got := c.ParticleWeight(i); got != want {
					t.Fatalf("λ=%g after %d events: particle %v weight %g, brute force %g",
						tc.lambda, ev, p, got, want)
				}
			}
		}
	}
}

// TestAblatedWeightsMatchBruteForce: each rule.CompressionVariant ablation
// must restrict the move set exactly as the reference predicates do.
func TestAblatedWeightsMatchBruteForce(t *testing.T) {
	lambda := 2.5
	for si, sigma := range enumerate.AllHoleFree(4) {
		for _, tc := range []struct {
			name  string
			ru    *rule.Rule
			valid func(cfg *config.Config, l lattice.Point, d lattice.Dir) bool
		}{
			{"no-prop2", rule.CompressionVariant(lambda, true, true, false), func(cfg *config.Config, l lattice.Point, d lattice.Dir) bool {
				return !cfg.Has(l.Neighbor(d)) && cfg.Degree(l) != 5 && move.Property1(cfg, l, d)
			}},
			{"no-prop1", rule.CompressionVariant(lambda, true, false, true), func(cfg *config.Config, l lattice.Point, d lattice.Dir) bool {
				return !cfg.Has(l.Neighbor(d)) && cfg.Degree(l) != 5 && move.Property2(cfg, l, d)
			}},
			{"no-degree-guard", rule.CompressionVariant(lambda, false, true, true), func(cfg *config.Config, l lattice.Point, d lattice.Dir) bool {
				return !cfg.Has(l.Neighbor(d)) && (move.Property1(cfg, l, d) || move.Property2(cfg, l, d))
			}},
		} {
			c := MustNewWithRule(sigma, tc.ru, 1)
			for i, p := range c.Points() {
				ws := c.SlotWeights(i)
				for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
					var want float64
					if tc.valid(sigma, p, d) {
						e := sigma.Degree(p)
						ep := sigma.DegreeExcluding(p.Neighbor(d), p)
						want = math.Min(1, math.Pow(lambda, float64(ep-e)))
					}
					if ws[d] != want {
						t.Fatalf("%s state %d particle %v dir %v: weight %g, want %g",
							tc.name, si, p, d, ws[d], want)
					}
				}
			}
		}
	}
}
