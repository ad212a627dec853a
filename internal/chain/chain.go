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
// Randomness: every draw comes from the embedded seq.State's PCG, shared
// with internal/kmc (see package seq); a step draws IntN(n), IntN(slots),
// then Float64 only when the Metropolis ratio is below 1. The reference
// chain draws through math/rand/v2 itself.
package chain

import (
	"fmt"
	"math/bits"

	"sops/internal/config"
	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/rule"
	"sops/internal/seq"
)

// Chain is a running Metropolis instance of a local rule. It is not safe
// for concurrent use; run independent chains in separate goroutines instead.
// Its zero value is ready for Reset.
type Chain struct {
	seq.State
	// plain marks a stateless, fixed-λ, six-slot rule (compression and
	// every rule.CompressionVariant): Run steps it in one call-free loop
	// over price. Every other rule steps through step.
	plain bool
	price [256]float64 // the ladder's move table, for plain rules

	steps     uint64
	accepted  uint64
	rotations uint64
}

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
// copy of σ0, which must be non-empty and connected: it checks that σ0 is
// connected and resets a zero Chain over its points. Payload rules draw the
// initial per-particle states from the chain's own randomness, so the full
// trajectory remains deterministic given (σ0, rule, seed).
func NewWithRule(sigma0 *config.Config, ru *rule.Rule, seed uint64) (*Chain, error) {
	if !sigma0.Connected() {
		return nil, fmt.Errorf("chain: starting configuration must be connected")
	}
	c := new(Chain)
	if err := c.Reset(sigma0.Points(), ru, seed); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset re-initializes the chain in place to run rule ru from the starting
// configuration pts with a fresh seed (seq.State.Reset, whose conditions on
// pts apply), producing a trajectory bit-identical to NewWithRule on the
// same (configuration, rule, seed) while reusing the chain's grid window
// and point buffer. It is the arena fast path for sweep runners that
// execute many independent tasks on one worker.
func (c *Chain) Reset(pts []lattice.Point, ru *rule.Rule, seed uint64) error {
	if err := c.State.Reset(pts, ru, seed); err != nil {
		return fmt.Errorf("chain: %w", err)
	}
	c.plain = ru.Plain()
	if c.plain {
		c.price = ru.Ladder().MoveTable()
	}
	c.steps, c.accepted, c.rotations = 0, 0, 0
	return nil
}

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

// Steps returns the number of iterations executed (accepted or not).
func (c *Chain) Steps() uint64 { return c.steps }

// Accepted returns the number of iterations that moved a particle.
func (c *Chain) Accepted() uint64 { return c.accepted }

// Rotations returns the number of accepted payload changes (zero for
// stateless rules).
func (c *Chain) Rotations() uint64 { return c.rotations }

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
	i := c.Rng.IntN(len(c.Pts))
	l := c.Pts[i]
	slot := c.Rng.IntN(c.Slots)
	if slot >= lattice.NumDirs {
		return c.stepRotate(l, slot-lattice.NumDirs)
	}
	d := lattice.Dir(slot)
	// One read answers the target's occupancy and, when it is free, the
	// mask the guard and the Hamiltonian tables are indexed by.
	m, occupied := c.G.MoveMask(l, d)
	if occupied || !c.Ru.Allowed(m) {
		return false
	}
	// A stateless rule has no payload term: its same-state submask is 0.
	var same grid.Mask
	if !c.Stateless {
		same = c.G.PairSame(l, d, m, c.G.Payload(l))
	}
	acc := c.LadderAt(c.steps-1, l).MovePay(m, same)
	delta := c.Ru.MoveDelta(m, same)
	// The Metropolis filter: accept with probability min(1, λ^ΔH).
	if acc < 1 {
		if c.Rng.Float64() >= acc {
			return false
		}
	}
	lp := l.Neighbor(d)
	c.G.MoveMasked(l, lp, m)
	c.Pts[i] = lp
	c.H += delta
	c.accepted++
	if c.Log != nil {
		c.Log.Moved(l, lp, c.G.Payload(lp))
	}
	return true
}

// stepRotate proposes the j-th alternative payload state for the particle
// at l and accepts with the Metropolis ratio on the rotation's ΔH.
func (c *Chain) stepRotate(l lattice.Point, j int) bool {
	s := c.G.Payload(l)
	t := c.Ru.RotTarget(s, j)
	delta := c.Ru.RotDelta(c.G.SameNeighborMask(l, s), c.G.SameNeighborMask(l, t))
	if acc := c.LadderAt(c.steps-1, l).Rot(delta); acc < 1 {
		if c.Rng.Float64() >= acc {
			return false
		}
	}
	c.G.SetPayload(l, t)
	c.H += delta
	c.rotations++
	if c.Log != nil {
		c.Log.Rotated(l, t)
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
	hi, lo := c.Rng.Hi, c.Rng.Lo
	pts := c.Pts
	np := uint64(len(pts))
	price := &c.price
	words, origin, rowBits, off := c.G.View()
	start := c.accepted
	for k := n; k > 0; k-- {
		hi, lo = seq.PCGNext(hi, lo)
		var i uint64
		if np&(np-1) == 0 {
			i = seq.DXSM(hi, lo) & (np - 1)
		} else {
			var low uint64
			i, low = bits.Mul64(seq.DXSM(hi, lo), np)
			if low < np {
				thresh := -np % np
				for low < thresh {
					hi, lo = seq.PCGNext(hi, lo)
					i, low = bits.Mul64(seq.DXSM(hi, lo), np)
				}
			}
		}
		hi, lo = seq.PCGNext(hi, lo)
		d, low := bits.Mul64(seq.DXSM(hi, lo), lattice.NumDirs)
		for low < slotThresh {
			hi, lo = seq.PCGNext(hi, lo)
			d, low = bits.Mul64(seq.DXSM(hi, lo), lattice.NumDirs)
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
			hi, lo = seq.PCGNext(hi, lo)
			if seq.ToUnit(seq.DXSM(hi, lo)) >= p {
				continue
			}
		}
		mk := grid.Mask(m)
		lp := l.Neighbor(lattice.Dir(d))
		c.G.MoveMasked(l, lp, mk)
		pts[i] = lp
		c.H += c.Ru.MoveDelta(mk, 0)
		c.accepted++
		if c.Log != nil {
			c.Log.Moved(l, lp, 0)
		}
		words, origin, rowBits, off = c.G.View()
	}
	c.Rng = seq.PCG{Hi: hi, Lo: lo}
	c.steps += n
	return c.accepted - start
}
