// Package seq holds the state of a sequential engine for local stochastic
// particle rules. The Metropolis chain M of internal/chain and its
// rejection-free formulation in internal/kmc run one process (equal in
// distribution at equal step counts), and each embeds one State: the grid
// and the particles, the rule and its shape, the ladder pricing its
// proposals, H(σ), the move tap, the Lemma 3.2 hole flag and the PCG
// stream every draw comes from. State owns what the two engines' Reset
// share — the rule and start checks, the seeding, the payload draws, H(σ)
// and the hole flag — and every observer the runner reads from either
// engine. An engine adds only how it advances.
//
// Randomness: every draw of either engine comes from State.Rng, a PCG
// seeded (seed, Stream) that reproduces math/rand/v2's PCG-DXSM generator
// and its IntN and Float64 exactly, so the stream is consumed — and every
// trajectory and golden produced — as with rand.New(rand.NewPCG(seed,
// Stream)). Reset draws the initial payload of each particle of a payload
// rule, in point order, with IntN(states); the engines' draws follow.
package seq

import (
	"errors"

	"sops/internal/config"
	"sops/internal/frame"
	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/rule"
)

// State is the configuration, rule and randomness of a sequential engine.
// Its zero value is ready for Reset. The engine that embeds it updates G,
// Pts and H on every applied move, draws from Rng and reports each move to
// Log when it is non-nil.
type State struct {
	G   *grid.Grid
	Pts []lattice.Point // particle positions; index i is particle i
	Ru  *rule.Rule
	// Stateless and Slots cache rule shape queries off the hot path.
	Stateless bool
	Slots     int
	H         int            // H(σ), maintained incrementally
	Log       *frame.MoveLog // accepted-move tap for delta frame encoding; may be nil
	Rng       PCG            // the engine's only randomness; Reset reseeds it in place

	// ld prices the proposals of a fixed-λ rule. For a rule with a
	// time-varying/site-dependent bias schedule, lcache memoizes the
	// ladders per effective λ instead; it is nil for fixed-λ rules.
	ld     *rule.Ladder
	lcache *rule.LadderCache
	// holesGone is set once a hole-free configuration has been observed
	// under a rule that keeps it hole-free (rule.Rule.KeepsHoleFree).
	holesGone bool
}

// Reset readies s to run rule ru from the starting configuration pts with
// a fresh seed, reusing the grid window and point buffer when s has run
// before: it seeds Rng, draws the payload of every particle of a payload
// rule, computes H(σ) and the hole flag, and detaches the move tap. The
// engine resets its own state after it.
//
// pts must be non-empty, duplicate-free, connected, and in canonical (Y, X)
// order (as produced by config.Config.Points or grid.Grid.AppendPoints);
// connectivity is the caller's responsibility and is not re-verified.
func (s *State) Reset(pts []lattice.Point, ru *rule.Rule, seed uint64) error {
	if ru == nil {
		return errors.New("nil rule")
	}
	if len(pts) == 0 {
		return errors.New("empty starting configuration")
	}
	s.Ru = ru
	s.Stateless = ru.Stateless()
	s.Slots = ru.Slots()
	s.Log = nil
	s.Rng = PCG{seed, Stream}
	s.ld = ru.Ladder()
	s.lcache = nil
	if ru.Biased() {
		s.lcache = rule.NewLadderCache(ru)
	}
	s.Pts = append(s.Pts[:0], pts...)
	if s.G == nil {
		s.G = grid.New(s.Pts, 0)
	} else {
		s.G.Reset(s.Pts)
	}
	if !s.Stateless {
		s.G.EnablePayload()
		for _, p := range s.Pts {
			s.G.SetPayload(p, uint8(s.Rng.IntN(ru.States())))
		}
	}
	s.H = ru.Energy(s.G)
	s.holesGone = ru.KeepsHoleFree() && !s.G.HasHoles()
	return nil
}

// LadderAt returns the ladder pricing a proposal by the particle at site
// during the given step (0-indexed): the rule's own for a fixed λ, else
// the one at the effective λ of site then.
func (s *State) LadderAt(step uint64, site lattice.Point) *rule.Ladder {
	if s.lcache == nil {
		return s.ld
	}
	return s.lcache.At(step, site)
}

// SetMoveLog attaches a move log that records every applied translation
// and payload rotation (for delta frame encoding). Pass nil to detach.
func (s *State) SetMoveLog(l *frame.MoveLog) { s.Log = l }

// Grid exposes the live occupancy grid for read-only observation;
// mutating it corrupts the engine.
func (s *State) Grid() *grid.Grid { return s.G }

// Rule returns the rule the engine runs.
func (s *State) Rule() *rule.Rule { return s.Ru }

// Lambda returns the bias parameter.
func (s *State) Lambda() float64 { return s.Ru.Lambda() }

// N returns the number of particles.
func (s *State) N() int { return len(s.Pts) }

// Edges returns e(σ) for the current configuration, maintained
// incrementally by the grid.
func (s *State) Edges() int { return s.G.Edges() }

// Energy returns H(σ), the rule's Hamiltonian for the current state: e(σ)
// for compression, the aligned-edge count for alignment.
func (s *State) Energy() int { return s.H }

// Payload returns the payload state of particle i (0 for stateless rules).
func (s *State) Payload(i int) uint8 { return s.G.Payload(s.Pts[i]) }

// Perimeter returns p(σ) for the current configuration: the identity
// p = 3n − 3 − e of Lemma 2.3 on a hole-free configuration, else the length
// of the boundary walk — a single walk answering both the hole check and
// the perimeter. The walks stop once the engine has reached Ω* under a
// rule that keeps it hole-free (Lemma 3.2; rule.Rule.KeepsHoleFree).
func (s *State) Perimeter() int {
	if len(s.Pts) == 1 {
		return 0
	}
	if !s.holesGone {
		cycles, edges := s.G.Boundaries()
		if cycles > 1 {
			return edges
		}
		s.holesGone = s.Ru.KeepsHoleFree()
	}
	return 3*len(s.Pts) - 3 - s.Edges()
}

// HoleFree reports whether the current configuration is hole-free. Under a
// rule that keeps it so, the answer stays true once seen; under any other
// rule every call walks the grid.
func (s *State) HoleFree() bool {
	if s.holesGone {
		return true
	}
	free := !s.G.HasHoles()
	s.holesGone = free && s.Ru.KeepsHoleFree()
	return free
}

// Config returns a snapshot copy of the current configuration.
func (s *State) Config() *config.Config { return config.FromGrid(s.G) }
