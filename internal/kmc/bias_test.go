package kmc

import (
	"math"
	"testing"

	"sops/internal/chain"
	"sops/internal/config"
	"sops/internal/enumerate"
	"sops/internal/lattice"
	"sops/internal/rule"
)

// forageTestRule builds a small-epoch foraging schedule whose λ switch and
// epoch boundaries both land inside a short test run.
func forageTestRule(t *testing.T, lambda, low float64, radius int, food, epoch uint64) *rule.Rule {
	t.Helper()
	ru, err := rule.Forage(lambda, rule.ForageOptions{
		LambdaLow: low,
		Radius:    radius,
		FoodSteps: food,
		Epoch:     epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ru
}

// TestBiasedWeightInvariantAcrossEpochs drives the sequential engine across
// many bias-epoch boundaries and the λ switch in bursts, checking after
// every burst that each maintained per-particle weight equals a from-scratch
// brute-force pricing at the engine's current epoch — the stale-weight bug
// class the epoch refresh exists to prevent. Past exhaustion the schedule is
// spatially uniform at λ_low, so the total weight must also agree with a
// fresh sequential tree built at fixed λ_low on the same configuration.
func TestBiasedWeightInvariantAcrossEpochs(t *testing.T) {
	const (
		lambda = 4
		low    = 0.7
		food   = 2048
		epoch  = 256
	)
	ru := forageTestRule(t, lambda, low, 3, food, epoch)
	c := MustNewWithRule(config.Spiral(40), ru, 97)
	// Bursts deliberately misaligned with the epoch so checks land at every
	// phase of the epoch cycle; the schedule crosses exhaustion mid-run.
	for burst := 0; burst < 14; burst++ {
		c.Run(300)
		if err := c.CheckWeightSums(); err != nil {
			t.Fatalf("after %d steps: %v", c.Steps(), err)
		}
		// Weights are priced at the epoch containing the last executed step.
		cfg := c.Config()
		for i, p := range c.Points() {
			eff := ru.BiasAt(c.Steps()-1, p)
			var want float64
			for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
				want += bruteSlotWeight(cfg, p, d, eff)
			}
			if got := c.ParticleWeight(i); got != want {
				t.Fatalf("after %d steps: particle %v weight %g, brute force at λ=%g gives %g",
					c.Steps(), p, got, eff, want)
			}
		}
	}
	if c.Steps() <= food+epoch {
		t.Fatalf("test ran %d steps, never provably past exhaustion at %d", c.Steps(), food)
	}
	// Post-exhaustion the bias is λ_low everywhere: a fresh fixed-λ tree on
	// the same configuration must price every move identically.
	fresh := MustNew(c.Config(), low, 1)
	if got, want := c.TotalWeight(), fresh.TotalWeight(); math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("post-exhaustion total weight %g, fresh λ_low tree %g", got, want)
	}
}

// TestBiasedSlotWeightsExhaustive: for every hole-free state at small n
// under a genuinely site-dependent schedule (food only at the origin), each
// engine slot weight must equal the brute-force Metropolis acceptance priced
// at the moving particle's own site. Covers both bias directions: λ_high
// compressing near food with λ_low expanding outside, and the reverse.
func TestBiasedSlotWeightsExhaustive(t *testing.T) {
	schedules := []struct {
		name        string
		lambda, low float64
	}{
		{"compress-near-food", 3, 0.6},
		{"expand-near-food", 0.8, 2.5},
	}
	for _, sch := range schedules {
		ru := forageTestRule(t, sch.lambda, sch.low, 1, 1<<20, 64)
		for _, n := range []int{2, 3, 4} {
			for si, sigma := range enumerate.AllHoleFree(n) {
				c := MustNewWithRule(sigma, ru, 1)
				var wantTotal float64
				for i, p := range c.Points() {
					// AllHoleFree anchors the origin as the lex-min occupied
					// cell, so distance-to-origin — and with it λ — varies
					// across the particles of every state with n ≥ 3.
					eff := ru.BiasAt(0, p)
					ws := c.SlotWeights(i)
					var wantP float64
					for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
						want := bruteSlotWeight(sigma, p, d, eff)
						if ws[d] != want {
							t.Fatalf("%s n=%d state %d particle %v dir %v: slot weight %g, brute force at λ=%g gives %g",
								sch.name, n, si, p, d, ws[d], eff, want)
						}
						wantP += want
					}
					if got := c.ParticleWeight(i); got != wantP {
						t.Fatalf("%s n=%d state %d particle %v: maintained weight %g, want %g",
							sch.name, n, si, p, got, wantP)
					}
					wantTotal += wantP
				}
				if got := c.TotalWeight(); math.Abs(got-wantTotal) > 1e-9*(1+wantTotal) {
					t.Fatalf("%s n=%d state %d: total weight %g, want %g", sch.name, n, si, got, wantTotal)
				}
			}
		}
	}
}

// TestUnsafeLambdaRejected: both kMC constructors must refuse a λ whose
// power ladder overflows — before this guard, (1e31)^10 = +Inf silently
// poisoned acceptance weights with Inf·0 = NaN.
func TestUnsafeLambdaRejected(t *testing.T) {
	for _, lambda := range []float64{1e31, 1e-31, 0, -1, math.Inf(1), math.NaN()} {
		if _, err := New(config.Line(10), lambda, 1); err == nil {
			t.Errorf("New accepted λ=%v", lambda)
		}
		if _, err := NewSharded(vline(20), lambda, 1, 2); err == nil {
			t.Errorf("NewSharded accepted λ=%v", lambda)
		}
	}
	// Reset must apply the same boundary when swapping rules.
	c := MustNew(config.Line(10), 4, 1)
	if err := c.Reset(config.Line(10).Points(), rule.Compression(4), 1); err != nil {
		t.Fatal(err)
	}
}

// TestForageDistributionMatchesMetropolis is the biased-rule leg of the
// cross-engine differential: under an identical fixed food layout whose
// schedule crosses both epoch boundaries and the λ switch mid-budget, the
// rejection-free engine must match the Metropolis chain in distribution —
// mean final perimeter, edges, and accepted moves within 4.5 combined
// standard errors (see TestDistributionMatchesMetropolis for the bound).
func TestForageDistributionMatchesMetropolis(t *testing.T) {
	const (
		n      = 16
		budget = 6000
		food   = 3000
	)
	reps := 24
	if testing.Short() {
		reps = 12
	}
	ru, err := rule.Forage(5, rule.ForageOptions{
		LambdaLow: 0.9,
		Radius:    5,
		FoodSteps: food,
		Epoch:     256,
	})
	if err != nil {
		t.Fatal(err)
	}
	var met, kmc sampler
	for r := 0; r < reps; r++ {
		seed := uint64(r)*0x9e3779b9 + 29
		mc := chain.MustNewWithRule(config.Spiral(n), ru, seed)
		mc.Run(budget)
		met.add(float64(mc.Perimeter()), float64(mc.Edges()), float64(mc.Accepted()))

		kc := MustNewWithRule(config.Spiral(n), ru, seed+0xabcdef)
		kc.Run(budget)
		if got := kc.Steps(); got != budget {
			t.Fatalf("kmc consumed %d equivalent steps, want %d", got, budget)
		}
		kmc.add(float64(kc.Perimeter()), float64(kc.Edges()), float64(kc.Accepted()))
	}
	for mi, name := range [3]string{"perimeter", "edges", "moves"} {
		m1, se1 := met.meanSE(mi)
		m2, se2 := kmc.meanSE(mi)
		bound := 4.5 * math.Hypot(se1, se2)
		if diff := math.Abs(m1 - m2); diff > bound {
			t.Errorf("mean %s: metropolis %.3f±%.3f vs kmc %.3f±%.3f — |Δ|=%.3f exceeds %.3f",
				name, m1, se1, m2, se2, diff, bound)
		}
	}
}
