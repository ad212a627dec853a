// Package chain implements the sequential Metropolis engine for local
// stochastic particle rules, canonically the compression Markov chain M of
// the paper (§3.1, Algorithm M): a Metropolis chain over connected particle
// configurations whose stationary distribution is π(σ) ∝ λ^{H(σ)} on the
// reachable state space — H(σ) = e(σ) for compression (Lemma 3.13),
// equivalently π(σ) ∝ λ^{−p(σ)} (Corollary 3.14). Each step selects a
// particle and a proposal slot uniformly at random — one of the six move
// directions, plus one slot per alternative payload state for rules with
// rotations — validates the proposal locally through the rule's compiled
// guard table, and applies the Metropolis filter min(1, λ^{ΔH}), priced
// by the rule's ladder.
//
// The chain runs on the bit-packed grid engine: occupancy (and, for payload
// rules, per-particle state) lives in grid.Grid, and the per-step validity
// check reads the target's occupancy and, when it is free, the 8-bit
// neighborhood mask, then looks the mask up in the rule's 256-entry tables,
// with no heap allocation. An accepted move hands that mask back to
// grid.MoveMasked, which updates e(σ) from it instead of re-counting
// degrees. A stateless, fixed-λ, six-slot rule (compression and its
// ablations) runs in one call-free loop: Run keeps the generator, the
// particles, the price table and the grid's View in locals and makes no
// call until a move is accepted. Payload rules (alignment) and biased ones
// (forage) step through grid.MoveMask and the ladder instead. The shape of
// the rule picks the loop; no option does. The canonical
// rule.Compression(λ) reproduces the pre-rule hard-coded chain bit for bit:
// a (σ0, λ, seed) triple produces the same trajectory. The ablated chains
// of the Lemma 3.2 / Fig 3 experiments are rules too
// (rule.CompressionVariant), built through NewWithRule. The original
// map-backed step survives in this package's tests as the
// differential-testing oracle for compression and its ablations.
//
// Randomness: every draw comes from one pcg, a two-word value that
// reproduces math/rand/v2's PCG-DXSM generator seeded (seed, rngStream).
// intN, unitFloat and the loop's inlined draws reproduce math/rand/v2's
// 64-bit IntN and Float64 exactly, so the stream is consumed — and every
// trajectory and golden produced — as with rand.New(rand.NewPCG(seed,
// rngStream)); a step draws IntN(n), IntN(slots), then Float64 only when
// the Metropolis ratio is below 1. TestDrawHelpersMatchMathRand pins the
// generator and the helpers to math/rand/v2, and the reference chain draws
// through math/rand/v2 itself.
package chain

import (
	"fmt"
	"math/bits"

	"sops/internal/config"
	"sops/internal/frame"
	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/rule"
)

// rngStream is the fixed second PCG seed word; New and Reset must use the
// same value so a Reset chain replays a fresh chain's randomness exactly.
const rngStream = 0x9e3779b97f4a7c15

// Chain is a running Metropolis instance of a local rule. It is not safe
// for concurrent use; run independent chains in separate goroutines instead.
type Chain struct {
	g      *grid.Grid
	points []lattice.Point
	ru     *rule.Rule
	lambda float64
	// stateless and slots cache rule shape queries off the hot path.
	stateless bool
	slots     int
	// plain marks a stateless, fixed-λ, six-slot rule (compression and
	// every rule.CompressionVariant): Run steps it in one call-free loop
	// over price. Every other rule steps through step.
	plain bool
	price [256]float64 // the ladder's move table, for plain rules
	rng   pcg          // the chain's only randomness; Reset reseeds it in place

	// ld prices the proposals of a fixed-λ rule. For a rule with a
	// time-varying/site-dependent bias schedule, lcache memoizes the
	// ladders per effective λ instead; it is nil for fixed-λ rules.
	ld     *rule.Ladder
	lcache *rule.LadderCache

	hval      int // H(σ), maintained incrementally
	steps     uint64
	accepted  uint64
	rotations uint64
	// holesGone is set once a hole-free configuration has been observed
	// under a rule that keeps it hole-free (rule.Rule.KeepsHoleFree).
	holesGone bool

	mlog *frame.MoveLog // accepted-move tap for delta frame encoding; may be nil
}

// SetMoveLog attaches a move log that records every accepted move and
// payload rotation (for delta frame encoding). Pass nil to detach.
func (c *Chain) SetMoveLog(l *frame.MoveLog) { c.mlog = l }

// New creates a compression chain (Markov chain M) over a copy of the
// starting configuration σ0, which must be non-empty and connected, with
// bias parameter λ > 0: NewWithRule(σ0, rule.Compression(λ), seed) once λ
// is checked. The chain is deterministic given (σ0, λ, seed). An ablated
// chain M is NewWithRule over rule.CompressionVariant.
func New(sigma0 *config.Config, lambda float64, seed uint64) (*Chain, error) {
	if err := rule.ValidateLambda(lambda); err != nil {
		return nil, fmt.Errorf("chain: %w", err)
	}
	return NewWithRule(sigma0, rule.Compression(lambda), seed)
}

// NewWithRule creates a chain running an arbitrary compiled rule over a
// copy of σ0, which must be non-empty and connected. Payload rules draw
// the initial per-particle states uniformly from the chain's own
// randomness, so the full trajectory remains deterministic given (σ0,
// rule, seed). It allocates the chain's grid and randomness and hands the
// rest to Reset.
func NewWithRule(sigma0 *config.Config, ru *rule.Rule, seed uint64) (*Chain, error) {
	if !sigma0.Connected() {
		return nil, fmt.Errorf("chain: starting configuration must be connected")
	}
	pts := sigma0.Points()
	c := &Chain{g: grid.New(pts, 0)}
	if err := c.Reset(pts, ru, seed); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset re-initializes the chain in place to run rule ru from the starting
// configuration pts with a fresh seed, producing a trajectory bit-identical
// to NewWithRule on the same (configuration, rule, seed) while reusing the
// chain's grid window and point buffer. It is the arena fast path for sweep
// runners that execute many independent tasks on one worker.
//
// pts must be non-empty, duplicate-free, connected, and in canonical (Y, X)
// order (as produced by config.Config.Points or grid.Grid.AppendPoints);
// connectivity is the caller's responsibility and is not re-verified.
func (c *Chain) Reset(pts []lattice.Point, ru *rule.Rule, seed uint64) error {
	if ru == nil {
		return fmt.Errorf("chain: nil rule")
	}
	if len(pts) == 0 {
		return fmt.Errorf("chain: empty starting configuration")
	}
	c.ru = ru
	c.lambda = ru.Lambda()
	c.rng = pcg{seed, rngStream}
	c.stateless = ru.Stateless()
	c.slots = ru.Slots()
	c.ld = ru.Ladder()
	c.lcache = nil
	if ru.Biased() {
		c.lcache = rule.NewLadderCache(ru)
	}
	c.plain = c.stateless && !ru.Biased() && c.slots == lattice.NumDirs
	if c.plain {
		c.price = c.ld.MoveTable()
	}
	c.points = append(c.points[:0], pts...)
	c.g.Reset(c.points)
	if !c.stateless {
		c.g.EnablePayload()
		states := c.ru.States()
		for _, p := range c.points {
			c.g.SetPayload(p, uint8(intN(&c.rng, states)))
		}
	}
	c.hval = c.ru.Energy(c.g)
	c.steps, c.accepted, c.rotations = 0, 0, 0
	c.holesGone = ru.KeepsHoleFree() && !c.g.HasHoles()
	return nil
}

// Grid exposes the chain's live occupancy grid for read-only observation;
// mutating it corrupts the chain.
func (c *Chain) Grid() *grid.Grid { return c.g }

// MustNew is New but panics on error; convenient for examples and tests with
// known-good inputs.
func MustNew(sigma0 *config.Config, lambda float64, seed uint64) *Chain {
	c, err := New(sigma0, lambda, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// MustNewWithRule is NewWithRule but panics on error.
func MustNewWithRule(sigma0 *config.Config, ru *rule.Rule, seed uint64) *Chain {
	c, err := NewWithRule(sigma0, ru, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Rule returns the rule the chain runs.
func (c *Chain) Rule() *rule.Rule { return c.ru }

// Lambda returns the bias parameter.
func (c *Chain) Lambda() float64 { return c.lambda }

// N returns the number of particles.
func (c *Chain) N() int { return len(c.points) }

// Steps returns the number of iterations executed (accepted or not).
func (c *Chain) Steps() uint64 { return c.steps }

// Accepted returns the number of iterations that moved a particle.
func (c *Chain) Accepted() uint64 { return c.accepted }

// Rotations returns the number of accepted payload changes (zero for
// stateless rules).
func (c *Chain) Rotations() uint64 { return c.rotations }

// Edges returns e(σ) for the current configuration, maintained incrementally.
func (c *Chain) Edges() int { return c.g.Edges() }

// Energy returns H(σ), the rule's Hamiltonian for the current state,
// maintained incrementally: e(σ) for compression, the aligned-edge count for
// alignment.
func (c *Chain) Energy() int { return c.hval }

// Payload returns the payload state of particle i (0 for stateless rules).
func (c *Chain) Payload(i int) uint8 { return c.g.Payload(c.points[i]) }

// Perimeter returns p(σ) for the current configuration: the identity
// p = 3n − 3 − e of Lemma 2.3 on a hole-free configuration, else the length
// of the boundary walk — a single walk answering both the hole check and
// the perimeter. The walks stop once the chain has reached Ω* under a rule
// that keeps it hole-free (Lemma 3.2; rule.Rule.KeepsHoleFree).
func (c *Chain) Perimeter() int {
	if len(c.points) == 1 {
		return 0
	}
	if !c.holesGone {
		cycles, edges := c.g.Boundaries()
		if cycles > 1 {
			return edges
		}
		c.holesGone = c.ru.KeepsHoleFree()
	}
	return 3*len(c.points) - 3 - c.Edges()
}

// HoleFree reports whether the current configuration is hole-free. Under a
// rule that keeps it so, the answer stays true once seen.
func (c *Chain) HoleFree() bool {
	if c.holesGone {
		return true
	}
	free := !c.g.HasHoles()
	c.holesGone = free && c.ru.KeepsHoleFree()
	return free
}

// Config returns a snapshot copy of the current configuration.
func (c *Chain) Config() *config.Config { return config.FromGrid(c.g) }

// ladderAt returns the ladder pricing a proposal by the particle at l in
// the current iteration: the rule's own for a fixed λ, else the one at the
// effective λ of l during the epoch of this iteration (0-indexed:
// steps−1).
func (c *Chain) ladderAt(l lattice.Point) *rule.Ladder {
	if c.lcache == nil {
		return c.ld
	}
	return c.lcache.At(c.steps-1, l)
}

// Step executes one iteration of the Metropolis chain and reports whether
// the state changed (a particle moved or a payload rotated).
func (c *Chain) Step() bool {
	if c.plain {
		return c.runPlain(1) != 0
	}
	return c.step()
}

// step is one iteration of a rule runPlain does not run: a payload rule
// (alignment) or a biased one (forage).
func (c *Chain) step() bool {
	c.steps++
	i := intN(&c.rng, len(c.points))
	l := c.points[i]
	slot := intN(&c.rng, c.slots)
	if slot >= lattice.NumDirs {
		return c.stepRotate(l, slot-lattice.NumDirs)
	}
	d := lattice.Dir(slot)
	// One read answers the target's occupancy and, when it is free, the
	// mask the guard and the Hamiltonian tables are indexed by.
	m, occupied := c.g.MoveMask(l, d)
	if occupied || !c.ru.Allowed(m) {
		return false
	}
	// A stateless rule has no payload term: its same-state submask is 0.
	var same grid.Mask
	if !c.stateless {
		same = c.g.PairSame(l, d, m, c.g.Payload(l))
	}
	acc := c.ladderAt(l).MovePay(m, same)
	delta := c.ru.MoveDelta(m, same)
	// The Metropolis filter: accept with probability min(1, λ^ΔH).
	if acc < 1 {
		if unitFloat(&c.rng) >= acc {
			return false
		}
	}
	lp := l.Neighbor(d)
	c.g.MoveMasked(l, lp, m)
	c.points[i] = lp
	c.hval += delta
	c.accepted++
	if c.mlog != nil {
		c.mlog.Moved(l, lp, c.g.Payload(lp))
	}
	return true
}

// stepRotate proposes the j-th alternative payload state for the particle
// at l and accepts with the Metropolis ratio on the rotation's ΔH.
func (c *Chain) stepRotate(l lattice.Point, j int) bool {
	s := c.g.Payload(l)
	t := c.ru.RotTarget(s, j)
	delta := c.ru.RotDelta(c.g.SameNeighborMask(l, s), c.g.SameNeighborMask(l, t))
	if acc := c.ladderAt(l).Rot(delta); acc < 1 {
		if unitFloat(&c.rng) >= acc {
			return false
		}
	}
	c.g.SetPayload(l, t)
	c.hval += delta
	c.rotations++
	if c.mlog != nil {
		c.mlog.Rotated(l, t)
	}
	return true
}

// Run executes n iterations and returns the number of accepted moves.
func (c *Chain) Run(n uint64) uint64 {
	if c.plain {
		return c.runPlain(n)
	}
	var acc uint64
	for k := uint64(0); k < n; k++ {
		if c.step() {
			acc++
		}
	}
	return acc
}

// runPlain is Run for a plain rule, one iteration per pass of a loop that
// makes no call until a move is accepted. It keeps the generator state, the
// particle slice, the price table and the grid's View in locals and inlines
// what step reaches through calls: both IntN draws (Lemire's multiply-shift
// with the rare −n % n rejection, or a mask for a power of two), the target
// bit, the 8-bit pair mask and the coin. A price of 0 is exactly a failed
// guard, since ValidateLambda keeps every λ^ΔH positive, so the coin is
// drawn only when 0 < price < 1: the draws of step, in step's order. The
// View is taken again after each accepted move, which may grow the window.
// TestRunMatchesReference pins draws, decisions and trajectories to the
// map-backed reference chain.
func (c *Chain) runPlain(n uint64) uint64 {
	// (2⁶⁴ − 6) mod 6: the Lemire rejection bound of the slot draw.
	const slotThresh = (1<<64 - lattice.NumDirs) % lattice.NumDirs
	hi, lo := c.rng.hi, c.rng.lo
	pts := c.points
	np := uint64(len(pts))
	price := &c.price
	words, origin, rowBits, off := c.g.View()
	start := c.accepted
	for k := n; k > 0; k-- {
		hi, lo = pcgNext(hi, lo)
		var i uint64
		if np&(np-1) == 0 {
			i = dxsm(hi, lo) & (np - 1)
		} else {
			var low uint64
			i, low = bits.Mul64(dxsm(hi, lo), np)
			if low < np {
				thresh := -np % np
				for low < thresh {
					hi, lo = pcgNext(hi, lo)
					i, low = bits.Mul64(dxsm(hi, lo), np)
				}
			}
		}
		hi, lo = pcgNext(hi, lo)
		d, low := bits.Mul64(dxsm(hi, lo), lattice.NumDirs)
		for low < slotThresh {
			hi, lo = pcgNext(hi, lo)
			d, low = bits.Mul64(dxsm(hi, lo), lattice.NumDirs)
		}
		l := pts[i]
		at := l.Y*rowBits + l.X - origin
		if t := at + off.Nbr[d]; words[t>>6]>>(uint(t)&63)&1 != 0 {
			continue
		}
		ds := &off.Mask[d]
		m := words[(at+ds[0])>>6]>>(uint(at+ds[0])&63)&1 |
			words[(at+ds[1])>>6]>>(uint(at+ds[1])&63)&1<<1 |
			words[(at+ds[2])>>6]>>(uint(at+ds[2])&63)&1<<2 |
			words[(at+ds[3])>>6]>>(uint(at+ds[3])&63)&1<<3 |
			words[(at+ds[4])>>6]>>(uint(at+ds[4])&63)&1<<4 |
			words[(at+ds[5])>>6]>>(uint(at+ds[5])&63)&1<<5 |
			words[(at+ds[6])>>6]>>(uint(at+ds[6])&63)&1<<6 |
			words[(at+ds[7])>>6]>>(uint(at+ds[7])&63)&1<<7
		// The Metropolis filter: accept with probability min(1, λ^ΔH).
		if p := price[m]; p < 1 {
			if p == 0 {
				continue
			}
			hi, lo = pcgNext(hi, lo)
			if toUnit(dxsm(hi, lo)) >= p {
				continue
			}
		}
		mk := grid.Mask(m)
		lp := l.Neighbor(lattice.Dir(d))
		c.g.MoveMasked(l, lp, mk)
		pts[i] = lp
		c.hval += c.ru.MoveDelta(mk, 0)
		c.accepted++
		if c.mlog != nil {
			c.mlog.Moved(l, lp, 0)
		}
		words, origin, rowBits, off = c.g.View()
	}
	c.rng = pcg{hi, lo}
	c.steps += n
	return c.accepted - start
}
