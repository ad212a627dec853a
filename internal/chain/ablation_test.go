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

// TestRunUntilStopsEarly: the predicate-driven runner must stop at the
// first satisfied checkpoint, not run to the cap.
func TestRunUntilStopsEarly(t *testing.T) {
	c := MustNew(config.Line(20), 6, 3)
	target := 2 * metrics.PMin(20)
	done := c.RunUntil(50_000_000, 1000, func() bool {
		return c.Perimeter() <= target
	})
	if done == 50_000_000 && c.Perimeter() > target {
		t.Fatalf("never reached 2·pmin within cap")
	}
	if done%1000 != 0 {
		t.Errorf("done=%d not a multiple of the check interval", done)
	}
	if done > 10_000_000 {
		t.Errorf("took %d iterations for n=20; expected early stop", done)
	}
}

// TestRunUntilRespectsCap: with an unsatisfiable predicate the runner stops
// exactly at the cap.
func TestRunUntilRespectsCap(t *testing.T) {
	c := MustNew(config.Line(5), 4, 1)
	done := c.RunUntil(2500, 999, func() bool { return false })
	if done != 2500 {
		t.Errorf("done=%d, want exactly the 2500 cap", done)
	}
	if c.Steps() != 2500 {
		t.Errorf("steps=%d, want 2500", c.Steps())
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
