package rule

import (
	"math"
	"math/rand/v2"
	"testing"

	"sops/internal/config"
	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/move"
)

// TestCompressionMatchesClassify: the compiled compression guard and
// Hamiltonian tables must agree with the move.Classify table (and hence,
// transitively, with the reference Property 1/2 implementations) on all 256
// masks, and the ladder's prices must be the exact floats min(1, λ^ΔH) the
// pre-rule kMC engine computed. Chain M draws its coin only for a price
// below 1, where the price is exactly λ^ΔH, so the cap keeps its
// trajectories too.
func TestCompressionMatchesClassify(t *testing.T) {
	for _, lambda := range []float64{0.5, 1, 2.17, 4, 6} {
		r := Compression(lambda)
		ld := r.Ladder()
		if ld.Lambda() != lambda || !r.KeepsHoleFree() {
			t.Fatalf("λ=%g: ladder λ %g, KeepsHoleFree %v", lambda, ld.Lambda(), r.KeepsHoleFree())
		}
		for m := 0; m < 256; m++ {
			mk := grid.Mask(m)
			cl := move.Classify(mk)
			if got, want := r.Allowed(mk), cl.Valid(); got != want {
				t.Fatalf("λ=%g mask %08b: Allowed %v, Classify.Valid %v", lambda, m, got, want)
			}
			delta := cl.TargetDegree() - cl.Degree()
			if got := r.MoveDelta(mk, 0); got != delta {
				t.Fatalf("λ=%g mask %08b: MoveDelta %d, want %d", lambda, m, got, delta)
			}
			if !cl.Valid() {
				if ld.Move(mk) != 0 {
					t.Fatalf("λ=%g mask %08b: invalid move has nonzero price", lambda, m)
				}
				continue
			}
			// Exact float equality: the same math.Pow/math.Min calls the
			// hard-coded engines made.
			if got, want := ld.Move(mk), math.Min(1, math.Pow(lambda, float64(delta))); got != want {
				t.Fatalf("λ=%g mask %08b: Move %g, want %g", lambda, m, got, want)
			}
		}
		if r.Slots() != 6 || !r.Stateless() || r.Rotates() || !r.Plain() {
			t.Fatalf("compression rule shape wrong: slots=%d stateless=%v rotates=%v plain=%v",
				r.Slots(), r.Stateless(), r.Rotates(), r.Plain())
		}
	}
}

// TestCompressionVariantAblations: each ablated guard must equal the
// corresponding predicate combination on every mask. Dropping a property
// admits a subset of chain M's moves and keeps configurations hole-free;
// dropping the degree guard admits moves chain M refuses and does not.
func TestCompressionVariantAblations(t *testing.T) {
	cases := []struct {
		name                      string
		degreeGuard, prop1, prop2 bool
	}{
		{"no-degree-guard", false, true, true},
		{"no-prop1", true, false, true},
		{"no-prop2", true, true, false},
	}
	for _, tc := range cases {
		r := CompressionVariant(2, tc.degreeGuard, tc.prop1, tc.prop2)
		for m := 0; m < 256; m++ {
			mk := grid.Mask(m)
			cl := move.Classify(mk)
			want := (!tc.degreeGuard || cl.Degree() != 5) &&
				((tc.prop1 && cl.Property1()) || (tc.prop2 && cl.Property2()))
			if got := r.Allowed(mk); got != want {
				t.Fatalf("%s mask %08b: Allowed %v, want %v", tc.name, m, got, want)
			}
		}
		if got := r.KeepsHoleFree(); got != tc.degreeGuard {
			t.Fatalf("%s: KeepsHoleFree %v, want %v", tc.name, got, tc.degreeGuard)
		}
		if !r.Plain() {
			t.Fatalf("%s: not Plain", tc.name)
		}
	}
	for _, name := range Names() {
		if r, err := New(name, 4, 0); err != nil || !r.KeepsHoleFree() {
			t.Fatalf("built-in rule %q: err %v, want KeepsHoleFree", name, err)
		}
	}
}

// alignedEdges recomputes the alignment Hamiltonian by brute force on a
// payloaded grid.
func alignedEdges(g *grid.Grid) int {
	total := 0
	g.Each(func(p lattice.Point) {
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			if q := p.Neighbor(d); g.Has(q) && g.Payload(p) == g.Payload(q) {
				total++
			}
		}
	})
	return total / 2
}

// randomPayloadGrid builds a random connected payloaded grid.
func randomPayloadGrid(rng *rand.Rand, n, states int) *grid.Grid {
	cfg := config.RandomConnected(rng, n)
	g := grid.New(cfg.Points(), 0)
	g.EnablePayload()
	g.Each(func(p lattice.Point) { g.SetPayload(p, uint8(rng.IntN(states))) })
	return g
}

// TestAlignmentDeltasMatchEnergy: on random payloaded configurations, the
// tabulated MoveDelta (for every admissible translation) and RotDelta (for
// every spin change) must equal the brute-force energy difference between
// the configurations before and after.
func TestAlignmentDeltasMatchEnergy(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	for _, states := range []int{2, 3, 6} {
		r := MustAlignment(3, states)
		for trial := 0; trial < 40; trial++ {
			g := randomPayloadGrid(rng, 12+rng.IntN(10), states)
			if got, want := r.Energy(g), alignedEdges(g); got != want {
				t.Fatalf("states=%d trial %d: Energy %d, brute force %d", states, trial, got, want)
			}
			for _, l := range g.Points() {
				s := g.Payload(l)
				// Translations.
				for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
					lp := l.Neighbor(d)
					if g.Has(lp) {
						continue
					}
					m := g.PairMask(l, d)
					if !r.Allowed(m) {
						continue
					}
					same := g.PairSame(l, d, m, s)
					before := alignedEdges(g)
					g.Move(l, lp)
					after := alignedEdges(g)
					g.Move(lp, l)
					if got, want := r.MoveDelta(m, same), after-before; got != want {
						t.Fatalf("states=%d trial %d move %v→%v: ΔH %d, brute force %d",
							states, trial, l, lp, got, want)
					}
				}
				// Rotations.
				for v := 0; v < states; v++ {
					if uint8(v) == s {
						continue
					}
					delta := r.RotDelta(g.SameNeighborMask(l, s), g.SameNeighborMask(l, uint8(v)))
					before := alignedEdges(g)
					g.SetPayload(l, uint8(v))
					after := alignedEdges(g)
					g.SetPayload(l, s)
					if got, want := delta, after-before; got != want {
						t.Fatalf("states=%d trial %d rotate %v %d→%d: ΔH %d, brute force %d",
							states, trial, l, s, v, got, want)
					}
				}
			}
		}
	}
}

// TestRotTargetBijection: for every current state, the slot→target mapping
// must enumerate exactly the other states.
func TestRotTargetBijection(t *testing.T) {
	r := MustAlignment(2, 6)
	for s := uint8(0); s < 6; s++ {
		seen := map[uint8]bool{}
		for j := 0; j < 5; j++ {
			tgt := r.RotTarget(s, j)
			if tgt == s || tgt >= 6 || seen[tgt] {
				t.Fatalf("state %d slot %d: bad target %d", s, j, tgt)
			}
			seen[tgt] = true
		}
	}
}

// TestRegistry: names resolve, defaults apply, bad inputs error.
func TestRegistry(t *testing.T) {
	if r, err := New("", 4, 0); err != nil || r.Name() != NameCompression {
		t.Fatalf("empty name: %v, %v", r, err)
	}
	r, err := New(NameAlignment, 4, 0)
	if err != nil || r.States() != DefaultAlignmentStates || r.Slots() != 6+DefaultAlignmentStates-1 || r.Plain() {
		t.Fatalf("align defaults: %+v, %v", r, err)
	}
	if _, err := New("no-such-rule", 4, 0); err == nil {
		t.Fatal("unknown rule accepted")
	}
	if _, err := New(NameCompression, 4, 3); err == nil {
		t.Fatal("compression accepted payload states")
	}
	if _, err := New(NameAlignment, 0, 0); err == nil {
		t.Fatal("λ=0 accepted")
	}
	if _, err := New(NameAlignment, 4, 1); err == nil {
		t.Fatal("single-state alignment accepted")
	}
	if _, err := New(NameAlignment, 4, MaxStates+1); err == nil {
		t.Fatal("oversized state count accepted")
	}
}

// TestCompileValidation: Defs violating the delta bound or missing pieces
// must be rejected.
func TestCompileValidation(t *testing.T) {
	ok := Def{
		Name:   "ok",
		Guard:  func(grid.Mask) bool { return true },
		Energy: func(*grid.Grid) int { return 0 },
	}
	if _, err := Compile(ok, 2); err != nil {
		t.Fatalf("minimal def rejected: %v", err)
	}
	bad := ok
	bad.OccDelta = func(grid.Mask) int { return deltaBound + 1 }
	if _, err := Compile(bad, 2); err == nil {
		t.Fatal("out-of-range OccDelta accepted")
	}
	bad = ok
	bad.Guard = nil
	if _, err := Compile(bad, 2); err == nil {
		t.Fatal("guardless def accepted")
	}
	bad = ok
	bad.Energy = nil
	if _, err := Compile(bad, 2); err == nil {
		t.Fatal("energyless def accepted")
	}
	if _, err := Compile(ok, math.Inf(1)); err == nil {
		t.Fatal("infinite λ accepted")
	}
}
