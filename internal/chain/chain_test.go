package chain

import (
	"math"
	"math/rand/v2"
	"testing"

	"sops/internal/config"
	"sops/internal/enumerate"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/move"
	"sops/internal/rule"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(config.New(), 4, 1); err == nil {
		t.Error("empty configuration must be rejected")
	}
	disc := config.New(lattice.Point{}, lattice.Point{X: 5})
	if _, err := New(disc, 4, 1); err == nil {
		t.Error("disconnected configuration must be rejected")
	}
	line := config.Line(5)
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := New(line, bad, 1); err == nil {
			t.Errorf("λ=%v must be rejected", bad)
		}
	}
	if _, err := New(line, 4, 1); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, uint64) {
		c := MustNew(config.Line(20), 4, 12345)
		c.Run(20000)
		return c.Edges(), c.Accepted()
	}
	e1, a1 := run()
	e2, a2 := run()
	if e1 != e2 || a1 != a2 {
		t.Errorf("same seed must reproduce: (%d,%d) vs (%d,%d)", e1, a1, e2, a2)
	}
	c3 := MustNew(config.Line(20), 4, 54321)
	c3.Run(20000)
	if c3.Edges() == e1 && c3.Accepted() == a1 {
		t.Error("different seeds should (overwhelmingly) diverge")
	}
}

// TestInvariantConnectivity: Lemma 3.1 — the system stays connected forever.
func TestInvariantConnectivity(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 10; trial++ {
		start := config.RandomConnected(rng, 20+rng.IntN(20))
		c := MustNew(start, 3, uint64(trial))
		for batch := 0; batch < 20; batch++ {
			c.Run(500)
			if !c.Config().Connected() {
				t.Fatalf("trial %d: configuration disconnected after %d steps", trial, c.Steps())
			}
		}
	}
}

// TestInvariantHolesNeverReform: Lemma 3.2/3.8 — once hole-free, always
// hole-free (checked against the authoritative flood-fill detector).
func TestInvariantHolesNeverReform(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 1))
	for trial := 0; trial < 8; trial++ {
		start := config.RandomConnected(rng, 25)
		c := MustNew(start, 4, uint64(100+trial))
		wasHoleFree := false
		for batch := 0; batch < 40; batch++ {
			c.Run(400)
			holes := len(c.Config().HoleCells()) > 0
			if wasHoleFree && holes {
				t.Fatalf("trial %d: hole reformed after %d steps", trial, c.Steps())
			}
			if !holes {
				wasHoleFree = true
			}
		}
		if !wasHoleFree {
			t.Logf("trial %d: holes not yet eliminated after %d steps (allowed but unusual)",
				trial, c.Steps())
		}
	}
}

// TestIncrementalCountersMatch: the incrementally maintained edge count and
// derived perimeter must always equal recomputation from scratch.
func TestIncrementalCountersMatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 23))
	for trial := 0; trial < 6; trial++ {
		start := config.RandomConnected(rng, 15+rng.IntN(15))
		c := MustNew(start, 2.5, uint64(trial*7+1))
		for batch := 0; batch < 25; batch++ {
			c.Run(300)
			if got, want := c.Edges(), c.Config().Edges(); got != want {
				t.Fatalf("incremental edges %d != recount %d at step %d", got, want, c.Steps())
			}
			if got, want := c.Perimeter(), c.Config().Perimeter(); got != want {
				t.Fatalf("perimeter %d != boundary walk %d (holeFree=%v) at step %d",
					got, want, c.HoleFree(), c.Steps())
			}
		}
	}
}

// TestParticleCountConserved: n never changes.
func TestParticleCountConserved(t *testing.T) {
	c := MustNew(config.Line(30), 4, 8)
	c.Run(30000)
	if c.Config().N() != 30 {
		t.Fatalf("particle count changed: %d", c.Config().N())
	}
	if c.N() != 30 {
		t.Fatalf("N() = %d", c.N())
	}
}

// TestSingleParticleNeverMoves: a 1-particle system has no valid moves.
func TestSingleParticleNeverMoves(t *testing.T) {
	c := MustNew(config.New(lattice.Point{}), 4, 1)
	c.Run(1000)
	if c.Accepted() != 0 {
		t.Error("single particle must never move")
	}
	if c.Perimeter() != 0 {
		t.Errorf("perimeter = %d, want 0", c.Perimeter())
	}
}

// TestCompressionAtHighLambda: with λ = 6 a 30-particle line must compress
// well below its starting perimeter (this is the headline behavior; the full
// Fig 2 reproduction lives in the bench harness).
func TestCompressionAtHighLambda(t *testing.T) {
	n := 30
	c := MustNew(config.Line(n), 6, 99)
	c.Run(400000)
	p := c.Perimeter()
	start := metrics.PMax(n)
	if p >= start*2/3 {
		t.Errorf("perimeter %d did not drop below 2/3 of starting %d", p, start)
	}
}

// TestExpansionAtLowLambda: with λ = 1 (uniform over Ω*) a 30-particle
// spiral must expand toward high perimeter: entropy dominates (§5).
func TestExpansionAtLowLambda(t *testing.T) {
	n := 30
	c := MustNew(config.Spiral(n), 1, 7)
	c.Run(400000)
	p := c.Perimeter()
	if p < 2*metrics.PMin(n) {
		t.Errorf("perimeter %d stayed within 2·pmin = %d at λ=1; expansion expected", p, 2*metrics.PMin(n))
	}
}

// TestTransitionDistRowStochastic: every exact transition row sums to 1 and
// every target is connected and hole-free when the source is (Lemma 3.2).
func TestTransitionDistRowStochastic(t *testing.T) {
	for _, src := range enumerate.AllHoleFree(5) {
		dist := enumerate.TransitionDist(src, 4)
		var sum float64
		for _, p := range dist {
			if p < -1e-15 {
				t.Fatalf("negative transition probability")
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row sums to %v", sum)
		}
		for _, next := range enumerate.Reachable(src) {
			if !next.Connected() {
				t.Fatalf("reachable config disconnected")
			}
			if next.HasHoles() {
				t.Fatalf("move from hole-free config created a hole (violates Lemma 3.2)")
			}
		}
	}
}

// TestStationaryDistributionExact power-iterates the exact transition matrix
// of M over Ω* for small n and verifies it converges to π(σ) = λ^e(σ)/Z
// (Lemma 3.13), the central correctness statement of the paper.
func TestStationaryDistributionExact(t *testing.T) {
	for _, tc := range []struct {
		n      int
		lambda float64
	}{
		{4, 4}, {4, 0.7}, {5, 2.5}, {6, 1.5},
	} {
		s := enumerate.ExactStationary(tc.n, tc.lambda)
		index := make(map[string]int, len(s.States))
		for i, c := range s.States {
			index[c.Key()] = i
		}
		// Build sparse rows.
		rows := make([]map[int]float64, len(s.States))
		for i, c := range s.States {
			rows[i] = map[int]float64{}
			for key, p := range enumerate.TransitionDist(c, tc.lambda) {
				j, ok := index[key]
				if !ok {
					t.Fatalf("n=%d: transition leaves Ω*", tc.n)
				}
				rows[i][j] += p
			}
		}
		// Power-iterate from uniform.
		cur := make([]float64, len(s.States))
		for i := range cur {
			cur[i] = 1 / float64(len(cur))
		}
		for iter := 0; iter < 20000; iter++ {
			next := make([]float64, len(cur))
			for i, row := range rows {
				for j, p := range row {
					next[j] += cur[i] * p
				}
			}
			var delta float64
			for i := range next {
				delta += math.Abs(next[i] - cur[i])
			}
			cur = next
			if delta < 1e-13 {
				break
			}
		}
		var worst float64
		for i := range cur {
			if d := math.Abs(cur[i] - s.Prob[i]); d > worst {
				worst = d
			}
		}
		if worst > 1e-8 {
			t.Errorf("n=%d λ=%v: power iteration deviates from λ^e/Z by %v", tc.n, tc.lambda, worst)
		}
		// Detailed balance spot check on the exact rows.
		for i, c := range s.States {
			for key, p := range enumerate.TransitionDist(c, tc.lambda) {
				j := index[key]
				if i == j {
					continue
				}
				lhs := s.Prob[i] * p
				var back float64
				if bp, ok := rows[j][i]; ok {
					back = bp
				}
				rhs := s.Prob[j] * back
				if math.Abs(lhs-rhs) > 1e-12 {
					t.Fatalf("n=%d λ=%v: detailed balance violated: %v vs %v", tc.n, tc.lambda, lhs, rhs)
				}
			}
		}
	}
}

// TestErgodicityOnSmallStateSpaces: from any configuration of Ω* every other
// configuration of Ω* is reachable (Lemma 3.10), and from any configuration
// WITH holes, Ω* is reachable (Lemma 3.8). BFS over the exact move graph.
func TestErgodicityOnSmallStateSpaces(t *testing.T) {
	sizes := []int{3, 4, 5, 6, 7}
	if testing.Short() {
		sizes = []int{3, 4, 5, 6}
	}
	for _, n := range sizes {
		states := enumerate.AllHoleFree(n)
		index := map[string]bool{}
		for _, c := range states {
			index[c.Key()] = true
		}
		// BFS from the line configuration.
		start := config.Line(n).Canonical()
		seen := map[string]bool{start.Key(): true}
		queue := []*config.Config{start}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range enumerate.Reachable(cur) {
				k := next.Key()
				if !seen[k] {
					seen[k] = true
					queue = append(queue, next)
				}
			}
		}
		for _, c := range states {
			if !seen[c.Key()] {
				t.Errorf("n=%d: hole-free config unreachable from line: %v", n, c.Points())
			}
		}
		// No configuration outside Ω* may be reachable from inside Ω*.
		for k := range seen {
			if !index[k] {
				t.Errorf("n=%d: reachable set escaped Ω*", n)
			}
		}
	}
	// Hole elimination: the 6-ring (n=6, one hole) must reach Ω*.
	ring := config.New(lattice.Ring(lattice.Point{}, 1)...)
	if !ring.HasHoles() {
		t.Fatal("setup: ring should have a hole")
	}
	seen := map[string]bool{ring.Key(): true}
	queue := []*config.Config{ring.Canonical()}
	reachedHoleFree := false
	for len(queue) > 0 && !reachedHoleFree {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range enumerate.Reachable(cur) {
			if !next.HasHoles() {
				reachedHoleFree = true
				break
			}
			if k := next.Key(); !seen[k] {
				seen[k] = true
				queue = append(queue, next)
			}
		}
	}
	if !reachedHoleFree {
		t.Error("6-ring cannot reach a hole-free configuration (violates Lemma 3.8)")
	}
}

// TestEmpiricalMatchesExactStationary runs the real sampler long enough on a
// tiny system and compares the empirical distribution of e(σ) with the exact
// one.
func TestEmpiricalMatchesExactStationary(t *testing.T) {
	const n = 4
	const lambda = 3
	s := enumerate.ExactStationary(n, lambda)
	exactByEdges := map[int]float64{}
	for i, c := range s.States {
		exactByEdges[c.Edges()] += s.Prob[i]
	}
	c := MustNew(config.Line(n), lambda, 2024)
	c.Run(20000) // burn-in
	samples := 0
	empByEdges := map[int]float64{}
	for i := 0; i < 200000; i++ {
		c.Step()
		if i%5 == 0 {
			empByEdges[c.Edges()]++
			samples++
		}
	}
	for e, pExact := range exactByEdges {
		pEmp := empByEdges[e] / float64(samples)
		if math.Abs(pEmp-pExact) > 0.02 {
			t.Errorf("e=%d: empirical %v vs exact %v", e, pEmp, pExact)
		}
	}
}

// TestAblationDegreeGuard: without condition (1), holes can form from
// hole-free configurations — demonstrating the rule is load-bearing.
func TestAblationDegreeGuard(t *testing.T) {
	sawHole := false
	for trial := 0; trial < 30 && !sawHole; trial++ {
		c := MustNewWithRule(config.Spiral(20), rule.CompressionVariant(1, false, true, true), uint64(trial))
		for batch := 0; batch < 60 && !sawHole; batch++ {
			c.Run(200)
			if len(c.Config().HoleCells()) > 0 {
				sawHole = true
			}
		}
	}
	if !sawHole {
		t.Error("ablating the degree guard never produced a hole; expected it to")
	}
}

// TestFig3FrozenTipMechanism reproduces the local mechanism behind Fig 3: a
// particle whose every adjacent empty location fails Property 1 — the pivot
// targets are "crowded" by cells of another arm of the configuration at
// lattice distance two — while a Property 2 leapfrog move exists. With
// Property 2 ablated, such a particle is frozen solid.
//
// (Reproduction note, recorded in EXPERIMENTS.md: exhaustive search shows no
// configuration with the GLOBAL Fig 3 property — zero Property-1 moves,
// some Property-2 moves — exists with ≤ 9 particles, and the P1-only move
// graph on Ω* is still connected for n ≤ 8; the paper's Fig 3 witness is a
// larger configuration. The local cage below isolates the phenomenon.)
func TestFig3FrozenTipMechanism(t *testing.T) {
	// Tip ℓ=(0,0) with line neighbor Q=(1,0). Cage cells at distance two:
	// (0,2) and (2,−2) kill the two pivot targets; (−2,1) provides a
	// Property-2 landing next to the far targets.
	c := config.New(
		lattice.Point{X: 0, Y: 0}, lattice.Point{X: 1, Y: 0}, lattice.Point{X: 2, Y: 0},
		lattice.Point{X: 0, Y: 2}, lattice.Point{X: 2, Y: -2}, lattice.Point{X: -2, Y: 1},
	)
	tip := lattice.Point{X: 0, Y: 0}
	anyP1, anyP2 := false, false
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		if c.Has(tip.Neighbor(d)) {
			continue
		}
		if move.Property1(c, tip, d) {
			anyP1 = true
		}
		if move.Property2(c, tip, d) {
			anyP2 = true
		}
	}
	if anyP1 {
		t.Error("caged tip should have no Property 1 moves")
	}
	if !anyP2 {
		t.Error("caged tip should retain a Property 2 move")
	}
	// Without the cage, the same tip has Property 1 pivots (the moves the
	// cage removed).
	open := config.New(
		lattice.Point{X: 0, Y: 0}, lattice.Point{X: 1, Y: 0}, lattice.Point{X: 2, Y: 0},
	)
	anyP1 = false
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		if open.Has(tip.Neighbor(d)) {
			continue
		}
		if move.Property1(open, tip, d) {
			anyP1 = true
		}
	}
	if !anyP1 {
		t.Error("uncaged line tip should have Property 1 pivot moves")
	}
}

// TestNoSmallFig3Witness documents that the global Fig 3 property requires a
// large configuration: for n ≤ 7 every hole-free configuration with any
// valid move has a valid Property-1 move.
func TestNoSmallFig3Witness(t *testing.T) {
	for n := 2; n <= 7; n++ {
		for _, c := range enumerate.AllHoleFree(n) {
			anyP1, anyP2 := false, false
			for _, l := range c.Points() {
				for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
					lp := l.Neighbor(d)
					if c.Has(lp) || c.Degree(l) == 5 {
						continue
					}
					if move.Property1(c, l, d) {
						anyP1 = true
					} else if move.Property2(c, l, d) {
						anyP2 = true
					}
				}
			}
			if !anyP1 && anyP2 {
				t.Fatalf("n=%d: unexpected small Fig 3 witness %v", n, c.Points())
			}
			if !anyP1 && !anyP2 {
				t.Fatalf("n=%d: frozen-solid configuration %v contradicts ergodicity", n, c.Points())
			}
		}
	}
}
