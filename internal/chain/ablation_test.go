package chain

import (
	"testing"

	"sops/internal/config"
	"sops/internal/metrics"
	"sops/internal/rule"
)

// TestAblationProperty1Frozen: with Property 1 disabled, a straight line is
// completely frozen — interior particles are straight-through (every target
// has a nonempty common-neighbor set, so Property 2 never applies) and the
// tips' Property-2 leapfrog targets have no landing neighbor. Property 1 is
// what lets lines fold at all.
func TestAblationProperty1Frozen(t *testing.T) {
	c := MustNewWithRule(config.Line(10), rule.CompressionVariant(4, true, false, true), 5)
	c.Run(50000)
	if c.Accepted() != 0 {
		t.Errorf("Property-2-only chain accepted %d moves from a line; expected frozen", c.Accepted())
	}
}

// TestAblationProperty2StillCompresses: disabling Property 2 leaves the
// everyday compression dynamics intact (its role is completeness of the
// state space, cf. Fig 3, not the compression drive).
func TestAblationProperty2StillCompresses(t *testing.T) {
	n := 25
	c := MustNewWithRule(config.Line(n), rule.CompressionVariant(6, true, true, false), 9)
	c.Run(300000)
	if p := c.Perimeter(); p >= metrics.PMax(n)*2/3 {
		t.Errorf("perimeter %d: no compression without Property 2", p)
	}
	if !c.Config().Connected() {
		t.Error("disconnected under Property-1-only dynamics")
	}
}

// TestHoleMeasuresAfterAblatedGuard: without the degree guard Lemma 3.2
// fails — a chain that was hole-free can form a hole — so HoleFree and
// Perimeter must keep reading the configuration instead of trusting an
// earlier hole-free observation.
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

// TestConfigSnapshotIsolation: Config() must return an independent copy.
func TestConfigSnapshotIsolation(t *testing.T) {
	c := MustNew(config.Line(6), 4, 2)
	snap := c.Config()
	c.Run(10000)
	if snap.Edges() != 5 {
		t.Errorf("snapshot mutated: edges=%d, want 5", snap.Edges())
	}
}
