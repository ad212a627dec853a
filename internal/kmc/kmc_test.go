package kmc

import (
	"math/rand/v2"
	"testing"

	"sops/internal/config"
	"sops/internal/rule"
)

// TestDeterminism: equal (σ0, λ, seed) triples must reproduce the identical
// trajectory — same events, same steps, same final configuration.
func TestDeterminism(t *testing.T) {
	a := MustNew(config.Line(40), 4, 7)
	b := MustNew(config.Line(40), 4, 7)
	a.Run(123_457)
	b.Run(123_457)
	if a.Events() != b.Events() || a.Steps() != b.Steps() {
		t.Fatalf("diverged: %d/%d events, %d/%d steps", a.Events(), b.Events(), a.Steps(), b.Steps())
	}
	if a.Config().Key() != b.Config().Key() {
		t.Fatal("final configurations differ for identical seeds")
	}
}

// TestStepAccounting: Run(k) must advance the Metropolis-equivalent step
// counter by exactly k regardless of batch boundaries, and holds must carry
// across calls.
func TestStepAccounting(t *testing.T) {
	c := MustNew(config.Line(20), 4, 3)
	var total uint64
	for _, k := range []uint64{1, 7, 999, 1, 40_000, 13, 0, 2_001} {
		c.Run(k)
		total += k
		if c.Steps() != total {
			t.Fatalf("after batches summing %d: Steps()=%d", total, c.Steps())
		}
	}
	if c.Accepted() != c.Events() {
		t.Fatalf("Accepted()=%d, Events()=%d; every event is an accepted move", c.Accepted(), c.Events())
	}
	if c.Events() == 0 {
		t.Fatal("no events fired in 43k equivalent steps at λ=4, n=20")
	}
	if c.Events() >= c.Steps() {
		t.Fatalf("events %d not below steps %d: holds are missing", c.Events(), c.Steps())
	}
}

// TestSingleParticleIsAbsorbing: one particle has no valid moves; steps
// advance, no events fire.
func TestSingleParticleIsAbsorbing(t *testing.T) {
	c := MustNew(config.Line(1), 4, 1)
	if w := c.TotalWeight(); w != 0 {
		t.Fatalf("single particle total weight %g, want 0", w)
	}
	if fired := c.Run(10_000); fired != 0 {
		t.Fatalf("%d events fired for a single particle", fired)
	}
	if c.Steps() != 10_000 {
		t.Fatalf("Steps()=%d, want 10000", c.Steps())
	}
}

// TestInvariantsAlongTrajectory: the chain preserves particle count and
// connectivity, and never creates a hole once hole-free (Lemma 3.2).
func TestInvariantsAlongTrajectory(t *testing.T) {
	c := MustNew(config.RandomConnected(rand.New(rand.NewPCG(1, 2)), 30), 4, 11)
	wasHoleFree := false
	for i := 0; i < 40; i++ {
		c.Run(5_000)
		cfg := c.Config()
		if cfg.N() != 30 {
			t.Fatalf("particle count changed: %d", cfg.N())
		}
		if !cfg.Connected() {
			t.Fatal("configuration disconnected")
		}
		holeFree := !cfg.HasHoles()
		if wasHoleFree && !holeFree {
			t.Fatal("hole re-formed after the chain reached Ω*")
		}
		if holeFree && !c.HoleFree() {
			t.Fatal("HoleFree() lags the actual configuration")
		}
		wasHoleFree = holeFree
	}
}

// TestHoleMeasuresAfterAblatedGuard mirrors the chain engine's test: under a
// rule without the degree guard holes can re-form, so HoleFree and
// Perimeter must keep reading the configuration.
func TestHoleMeasuresAfterAblatedGuard(t *testing.T) {
	ru := rule.CompressionVariant(1, false, true, true)
	for seed := uint64(0); seed < 30; seed++ {
		c := MustNewWithRule(config.Spiral(20), ru, seed)
		for step := 200; step <= 8000; step += 200 {
			c.Run(200)
			cfg := c.Config()
			if got, want := c.HoleFree(), !cfg.HasHoles(); got != want {
				t.Fatalf("seed %d step %d: HoleFree %v, configuration hole-free %v", seed, step, got, want)
			}
			if got, want := c.Perimeter(), cfg.Perimeter(); got != want {
				t.Fatalf("seed %d step %d: Perimeter %d, boundary walk %d", seed, step, got, want)
			}
		}
	}
}

// TestCompresses: sanity check that the engine actually compresses at high
// bias — the final perimeter from a line start drops well below the start.
func TestCompresses(t *testing.T) {
	c := MustNew(config.Line(30), 5, 9)
	c.Run(200 * 30 * 30)
	if p, start := c.Perimeter(), 2*30-2; p > start*2/3 {
		t.Fatalf("perimeter %d after 180k steps, expected well under %d", p, start*2/3)
	}
}
