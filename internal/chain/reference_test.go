package chain

import (
	"math"
	"math/rand/v2"

	"sops/internal/config"
	"sops/internal/lattice"
	"sops/internal/move"
	"sops/internal/seq"
)

// refChain is chain M as first written: on the map-backed config.Config,
// with the BFS/ring-walk Property 1/2 checks of internal/move instead of
// the grid and the compiled rule tables. It draws through math/rand/v2's
// IntN and Float64 in the order Chain.Step does (particle, slot, then the
// Metropolis coin only when λ^ΔH < 1), sharing no randomness code with the
// chain, so from equal (σ0, λ, seed) the two engines take identical
// trajectories on 64-bit hosts (seq.TestDrawHelpersMatchMathRand says why
// not on 32-bit ones). degreeGuard, prop1 and prop2 mirror
// rule.CompressionVariant's arguments.
type refChain struct {
	cfg    *config.Config
	points []lattice.Point
	rng    *rand.Rand
	// lamPow caches λ^k for k ∈ [−5, 5] at index k+5.
	lamPow                    [11]float64
	degreeGuard, prop1, prop2 bool
	edges                     int
	accepted                  uint64
}

func newRefChain(sigma0 *config.Config, lambda float64, seed uint64, degreeGuard, prop1, prop2 bool) *refChain {
	r := &refChain{
		cfg:         sigma0.Clone(),
		points:      sigma0.Points(),
		rng:         rand.New(rand.NewPCG(seed, seq.Stream)),
		degreeGuard: degreeGuard,
		prop1:       prop1,
		prop2:       prop2,
		edges:       sigma0.Edges(),
	}
	for k := -5; k <= 5; k++ {
		r.lamPow[k+5] = math.Pow(lambda, float64(k))
	}
	return r
}

// Step is one iteration of chain M (§3.1): pick a particle and a direction,
// refuse an occupied target, a particle with five neighbors (condition 1)
// and a move satisfying neither Property 1 nor Property 2 (condition 2),
// then accept with probability min(1, λ^{e′−e}).
func (r *refChain) Step() bool {
	i := r.rng.IntN(len(r.points))
	l := r.points[i]
	d := lattice.Dir(r.rng.IntN(lattice.NumDirs))
	lp := l.Neighbor(d)
	if r.cfg.Has(lp) {
		return false
	}
	e := r.cfg.Degree(l)
	if r.degreeGuard && e == 5 {
		return false
	}
	if !(r.prop1 && move.Property1(r.cfg, l, d)) && !(r.prop2 && move.Property2(r.cfg, l, d)) {
		return false
	}
	ep := r.cfg.DegreeExcluding(lp, l)
	if thresh := r.lamPow[ep-e+5]; thresh < 1 && r.rng.Float64() >= thresh {
		return false
	}
	r.cfg.Move(l, lp)
	r.points[i] = lp
	r.edges += ep - e
	r.accepted++
	return true
}
