package kmc

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"sops/internal/chain"
	"sops/internal/config"
	"sops/internal/enumerate"
	"sops/internal/lattice"
	"sops/internal/move"
	"sops/internal/rule"
)

// spinView pairs a map-backed configuration with a spin assignment: the
// brute-force oracle's state for the alignment rule.
type spinView struct {
	cfg   *config.Config
	spins map[lattice.Point]uint8
}

// sameNeighbors counts the occupied neighbors of l (excluding excl) whose
// spin equals s.
func (v spinView) sameNeighbors(l, excl lattice.Point, s uint8) int {
	n := 0
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		q := l.Neighbor(d)
		if q != excl && v.cfg.Has(q) && v.spins[q] == s {
			n++
		}
	}
	return n
}

// bruteAlignSlotWeight prices the translation (l, l+d) straight from the
// definitions: zero unless the structural move is valid (chain M step 6
// conditions over occupancy alone), otherwise min(1, λ^{Δa}) with Δa the
// aligned-neighbor change of carrying l's spin to l′.
func (v spinView) bruteAlignSlotWeight(l lattice.Point, d lattice.Dir, lambda float64) float64 {
	if !move.Valid(v.cfg, l, d) {
		return 0
	}
	lp := l.Neighbor(d)
	s := v.spins[l]
	delta := v.sameNeighbors(lp, l, s) - v.sameNeighbors(l, l, s)
	return math.Min(1, math.Pow(lambda, float64(delta)))
}

// bruteRotWeight prices the rotation of l's spin from s to t.
func (v spinView) bruteRotWeight(l lattice.Point, s, t uint8, lambda float64) float64 {
	delta := v.sameNeighbors(l, l, t) - v.sameNeighbors(l, l, s)
	return math.Min(1, math.Pow(lambda, float64(delta)))
}

// alignedEdges counts edges whose endpoints share a spin.
func (v spinView) alignedEdges() int {
	total := 0
	for _, p := range v.cfg.Points() {
		for d := lattice.Dir(0); d < lattice.NumDirs/2; d++ {
			if q := p.Neighbor(d); v.cfg.Has(q) && v.spins[p] == v.spins[q] {
				total++
			}
		}
	}
	return total
}

// setSpins overwrites the engine's payload state and rebuilds its weights,
// so a test can drive the engine onto an exact (configuration, spins) state.
func setSpins(c *Chain, spins map[lattice.Point]uint8) {
	for p, s := range spins {
		c.G.SetPayload(p, s)
	}
	for i := range c.Pts {
		c.wj[i] = c.particleWeight(i)
	}
	c.fen.rebuild(c.wj)
	c.H = c.Ru.Energy(c.G)
}

// checkAgainstBrute compares every maintained per-slot, per-particle, and
// total weight of the engine against the brute-force oracle on the same
// state.
func checkAgainstBrute(t *testing.T, c *Chain, v spinView, lambda float64, states int, label string) {
	t.Helper()
	var wantTotal float64
	for i, p := range c.Points() {
		ws := c.SlotWeights(i)
		var wantP float64
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			want := v.bruteAlignSlotWeight(p, d, lambda)
			if ws[d] != want {
				t.Fatalf("%s particle %v dir %v: slot weight %g, brute force %g", label, p, d, ws[d], want)
			}
			wantP += want
		}
		rws := c.RotationWeights(i)
		s := v.spins[p]
		ri := 0
		for tgt := 0; tgt < states; tgt++ {
			if uint8(tgt) == s {
				continue
			}
			want := v.bruteRotWeight(p, s, uint8(tgt), lambda)
			if rws[ri] != want {
				t.Fatalf("%s particle %v rot→%d: weight %g, brute force %g", label, p, tgt, rws[ri], want)
			}
			wantP += want
			ri++
		}
		if got := c.ParticleWeight(i); got != wantP {
			t.Fatalf("%s particle %v: maintained weight %g, brute force %g", label, p, got, wantP)
		}
		wantTotal += wantP
	}
	if got := c.TotalWeight(); math.Abs(got-wantTotal) > 1e-9*(1+wantTotal) {
		t.Fatalf("%s: total weight %g, brute force %g", label, got, wantTotal)
	}
	if got, want := c.Energy(), v.alignedEdges(); got != want {
		t.Fatalf("%s: maintained H %d, brute force %d", label, got, want)
	}
}

// TestAlignWeightsMatchBruteForceOverStateSpace: for every hole-free state
// at small n and every spin assignment, the engine's translation and
// rotation slot weights must equal the brute-force guard + Hamiltonian
// evaluation — the alignment mirror of
// TestWeightsMatchBruteForceOverStateSpace.
func TestAlignWeightsMatchBruteForceOverStateSpace(t *testing.T) {
	type cell struct {
		n, states int
	}
	cells := []cell{{2, 2}, {3, 2}, {3, 3}, {4, 2}}
	if testing.Short() {
		cells = []cell{{2, 2}, {3, 3}}
	}
	for _, tc := range cells {
		for _, lambda := range []float64{0.7, 4} {
			ru := rule.MustAlignment(lambda, tc.states)
			for si, sigma := range enumerate.AllHoleFree(tc.n) {
				pts := sigma.Points()
				// Every spin assignment: states^n of them.
				assigns := 1
				for range pts {
					assigns *= tc.states
				}
				for a := 0; a < assigns; a++ {
					spins := map[lattice.Point]uint8{}
					v := a
					for _, p := range pts {
						spins[p] = uint8(v % tc.states)
						v /= tc.states
					}
					c := MustNewWithRule(sigma, ru, 1)
					setSpins(c, spins)
					label := fmt.Sprintf("n=%d k=%d λ=%g state %d assign %d", tc.n, tc.states, lambda, si, a)
					checkAgainstBrute(t, c, spinView{cfg: sigma, spins: spins}, lambda, tc.states, label)
				}
			}
		}
	}
}

// TestAlignIncrementalWeightsAlongTrajectory: after batches of applied
// events (translations and rotations interleaved) the incrementally
// maintained weights must equal a brute-force recomputation on the current
// (configuration, spins) state — the payload dirty-neighborhood
// invalidation may not miss a cell.
func TestAlignIncrementalWeightsAlongTrajectory(t *testing.T) {
	events := 500
	if testing.Short() {
		events = 120
	}
	for _, tc := range []struct {
		start  *config.Config
		lambda float64
		states int
	}{
		{config.Line(22), 4, 6},
		{config.Spiral(26), 0.8, 3}, // expanding: exercises window growth
		{config.RandomConnected(rand.New(rand.NewPCG(3, 9)), 20), 3, 2},
	} {
		c := MustNewWithRule(tc.start, rule.MustAlignment(tc.lambda, tc.states), 42)
		for ev := 0; ev < events; {
			ev += int(c.Run(40))
			cfg := c.Config()
			spins := map[lattice.Point]uint8{}
			for i, p := range c.Points() {
				spins[p] = c.Payload(i)
			}
			label := fmt.Sprintf("λ=%g k=%d after %d events", tc.lambda, tc.states, ev)
			checkAgainstBrute(t, c, spinView{cfg: cfg, spins: spins}, tc.lambda, tc.states, label)
		}
		if c.Rotations() == 0 {
			t.Fatalf("λ=%g k=%d: no rotations fired along the trajectory", tc.lambda, tc.states)
		}
	}
}

// TestAlignDistributionMatchesMetropolis is the statistical differential
// test of the alignment chain across engines: R independent replicas of the
// Metropolis chain and the rejection-free engine at the same
// Metropolis-equivalent budget must agree on the mean final perimeter,
// edges, aligned-edge count (H), and translation count within combined
// standard errors. The 4.5σ bound matches TestDistributionMatchesMetropolis.
func TestAlignDistributionMatchesMetropolis(t *testing.T) {
	type cell struct {
		lambda float64
		n      int
	}
	cells := []cell{{2, 16}, {4, 16}, {4, 30}}
	reps := 24
	if testing.Short() {
		cells = []cell{{4, 16}}
		reps = 12
	}
	const states = 4
	for _, tc := range cells {
		t.Run(fmt.Sprintf("lambda=%g/n=%d", tc.lambda, tc.n), func(t *testing.T) {
			budget := 200 * uint64(tc.n) * uint64(tc.n)
			var met, rf sampler
			for r := 0; r < reps; r++ {
				seed := uint64(r)*0x9e3779b9 + 17
				ru := rule.MustAlignment(tc.lambda, states)
				mc := chain.MustNewWithRule(config.Line(tc.n), ru, seed)
				mc.Run(budget)
				met.add(float64(mc.Perimeter()), float64(mc.Edges()), float64(mc.Energy()), float64(mc.Accepted()))

				kc := MustNewWithRule(config.Line(tc.n), ru, seed+0xabcdef)
				kc.Run(budget)
				if got := kc.Steps(); got != budget {
					t.Fatalf("kmc consumed %d equivalent steps, want %d", got, budget)
				}
				rf.add(float64(kc.Perimeter()), float64(kc.Edges()), float64(kc.Energy()), float64(kc.Accepted()))
			}
			for mi, name := range []string{"perimeter", "edges", "energy", "moves"} {
				m1, se1 := met.meanSE(mi)
				m2, se2 := rf.meanSE(mi)
				bound := 4.5 * math.Hypot(se1, se2)
				if diff := math.Abs(m1 - m2); diff > bound {
					t.Errorf("mean %s: metropolis %.3f±%.3f vs kmc %.3f±%.3f — |Δ|=%.3f exceeds %.3f",
						name, m1, se1, m2, se2, diff, bound)
				}
			}
		})
	}
}
