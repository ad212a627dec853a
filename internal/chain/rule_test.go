package chain

import (
	"testing"

	"sops/internal/config"
	"sops/internal/lattice"
	"sops/internal/rule"
)

// TestNewWithRuleCompressionBitIdentical: running the chain through the
// compiled rule.Compression must reproduce New's trajectory exactly — same
// accept/reject stream, same particle positions, same counters. (The
// differential tests pin both to the map-backed reference chain.)
func TestNewWithRuleCompressionBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		a := MustNew(config.Line(30), 4, seed)
		b := MustNewWithRule(config.Line(30), rule.Compression(4), seed)
		for step := 0; step < 20000; step++ {
			if am, bm := a.Step(), b.Step(); am != bm {
				t.Fatalf("seed %d step %d: New moved=%v, NewWithRule moved=%v", seed, step, am, bm)
			}
		}
		if a.Accepted() != b.Accepted() || a.Edges() != b.Edges() || a.Perimeter() != b.Perimeter() {
			t.Fatalf("seed %d: accepted/edges/perimeter diverged: %d/%d/%d vs %d/%d/%d",
				seed, a.Accepted(), a.Edges(), a.Perimeter(), b.Accepted(), b.Edges(), b.Perimeter())
		}
		ap, bp := a.Config().Points(), b.Config().Points()
		for i := range ap {
			if ap[i] != bp[i] {
				t.Fatalf("seed %d: final point %d = %v vs %v", seed, i, ap[i], bp[i])
			}
		}
	}
}

// TestAlignmentChainInvariants runs the alignment chain and checks, at
// checkpoints, that the incrementally maintained Hamiltonian matches a
// from-scratch recomputation, that the configuration stays connected and
// hole-free (the structural guard is compression's), and that edge counts
// stay consistent. Both λ regimes and two state counts are exercised.
func TestAlignmentChainInvariants(t *testing.T) {
	cases := []struct {
		lambda float64
		states int
		start  *config.Config
	}{
		{4, 6, config.Line(25)},
		{0.7, 3, config.Spiral(30)},
		{2, 2, config.Line(20)},
	}
	for _, tc := range cases {
		c := MustNewWithRule(tc.start, rule.MustAlignment(tc.lambda, tc.states), 11)
		var rotSeen bool
		for batch := 0; batch < 20; batch++ {
			c.Run(2000)
			v := c.Config()
			if got, want := c.Edges(), v.Edges(); got != want {
				t.Fatalf("λ=%g k=%d batch %d: incremental edges %d, recomputed %d", tc.lambda, tc.states, batch, got, want)
			}
			if !v.Connected() {
				t.Fatalf("λ=%g k=%d batch %d: configuration disconnected", tc.lambda, tc.states, batch)
			}
			if v.HasHoles() {
				t.Fatalf("λ=%g k=%d batch %d: hole formed under the compression guard", tc.lambda, tc.states, batch)
			}
			if got, want := c.Energy(), c.Rule().Energy(c.G); got != want {
				t.Fatalf("λ=%g k=%d batch %d: incremental H %d, recomputed %d", tc.lambda, tc.states, batch, got, want)
			}
			for i := range c.Pts {
				if s := c.Payload(i); int(s) >= tc.states {
					t.Fatalf("λ=%g k=%d batch %d: particle %d has out-of-range spin %d", tc.lambda, tc.states, batch, i, s)
				}
			}
			rotSeen = rotSeen || c.Rotations() > 0
		}
		if !rotSeen {
			t.Fatalf("λ=%g k=%d: no rotation ever accepted in 40000 steps", tc.lambda, tc.states)
		}
	}
}

// TestAlignmentConsensus: at strong aligning bias the spins should reach
// near-consensus from a random start — the order parameter (aligned
// fraction of edges) must exceed a loose threshold. This is a sanity check
// on the sign of the bias, not a sharp physical claim.
func TestAlignmentConsensus(t *testing.T) {
	c := MustNewWithRule(config.Spiral(30), rule.MustAlignment(8, 3), 5)
	c.Run(400_000)
	if c.Edges() == 0 {
		t.Fatal("no edges at λ=8?")
	}
	order := float64(c.Energy()) / float64(c.Edges())
	if order < 0.8 {
		t.Fatalf("order parameter %.3f after 400k steps at λ=8 — aligning bias not aligning", order)
	}
	// And the disordering regime: λ < 1 should keep the order parameter low
	// (a uniform-random 3-state assignment has E[order] = 1/3).
	d := MustNewWithRule(config.Spiral(30), rule.MustAlignment(0.5, 3), 5)
	d.Run(400_000)
	if dOrder := float64(d.Energy()) / float64(d.Edges()); dOrder > 0.6 {
		t.Fatalf("order parameter %.3f at λ=0.5 — disordering bias is ordering", dOrder)
	}
}

// TestRotationDetailedBalanceSmallState: on a two-particle system with k=2,
// the stationary distribution over the 2×2 spin states is computable by
// hand: π(aligned) ∝ λ, π(anti) ∝ 1 per spin pair. Long-run occupancy of
// aligned states must converge to 2λ/(2λ+2).
func TestRotationDetailedBalanceSmallState(t *testing.T) {
	const lambda = 3
	c := MustNewWithRule(config.Line(2), rule.MustAlignment(lambda, 2), 9)
	var aligned, total uint64
	c.Run(10_000) // burn-in
	for k := 0; k < 200_000; k++ {
		c.Run(5)
		total++
		if c.Energy() == c.Edges() { // all edges aligned (here: the single edge)
			aligned++
		}
	}
	got := float64(aligned) / float64(total)
	want := lambda / (lambda + 1.0)
	if diff := got - want; diff < -0.02 || diff > 0.02 {
		t.Fatalf("aligned-state occupancy %.4f, exact %.4f (|Δ| > 0.02)", got, want)
	}
}

// TestNewWithRuleValidation: constructor error paths.
func TestNewWithRuleValidation(t *testing.T) {
	if _, err := NewWithRule(config.Line(5), nil, 1); err == nil {
		t.Fatal("nil rule accepted")
	}
	if _, err := NewWithRule(config.New(), rule.Compression(2), 1); err == nil {
		t.Fatal("empty configuration accepted")
	}
	disconnected := config.New(lattice.Point{X: 0, Y: 0}, lattice.Point{X: 5, Y: 5})
	if _, err := NewWithRule(disconnected, rule.Compression(2), 1); err == nil {
		t.Fatal("disconnected configuration accepted")
	}
}
