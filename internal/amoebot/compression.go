package amoebot

import (
	"fmt"

	"sops/internal/lattice"
	"sops/internal/rule"
)

// Metropolis is the distributed, local, asynchronous translation of the
// sequential Metropolis engine for any compiled rule — Algorithm A of §3.2
// when the rule is compression. Each particle runs the same code; the only
// persistent state is the one-bit flag (plus, for payload rules, the
// particle's payload byte stored at its tail), keeping the algorithm nearly
// oblivious (§3.3).
//
// On activation a contracted particle draws one of the rule's proposal
// slots uniformly: a translation slot expands toward the chosen direction
// exactly as Algorithm A does, and a rotation slot (payload rules)
// evaluates the Metropolis filter on the payload change immediately —
// rotations touch no second node, so the expand/contract handshake and the
// flag are unnecessary and the activation stays atomic.
//
// The Metropolis filter prices each proposal through the rule's ladder.
// For rules with a time-varying/site-dependent bias it prices at the
// effective λ of (activation step, tail site): the activation count is the
// asynchronous analogue of the chain's step clock. The protocol's ladder
// cache sees one activation at a time, as the schedulers run them; the
// Ladders themselves are immutable.
type Metropolis struct {
	ru *rule.Rule
	// ld prices the proposals of a fixed-λ rule; for biased rules lcache
	// memoizes the ladders per effective λ instead (nil for fixed λ).
	ld     *rule.Ladder
	lcache *rule.LadderCache
}

// Compression is the canonical compression instance of the protocol:
// Algorithm A of §3.2.
type Compression = Metropolis

// NewMetropolis returns the distributed protocol for a compiled rule.
func NewMetropolis(ru *rule.Rule) (*Metropolis, error) {
	if ru == nil {
		return nil, fmt.Errorf("amoebot: nil rule")
	}
	p := &Metropolis{ru: ru, ld: ru.Ladder()}
	if ru.Biased() {
		p.lcache = rule.NewLadderCache(ru)
	}
	return p, nil
}

// MustNewMetropolis is NewMetropolis but panics on error.
func MustNewMetropolis(ru *rule.Rule) *Metropolis {
	p, err := NewMetropolis(ru)
	if err != nil {
		panic(err)
	}
	return p
}

// NewCompression returns the compression protocol with bias λ > 0. The paper
// analyzes λ > 2+√2 for compression and λ < 2.17 for expansion; any positive
// bias is a valid input.
func NewCompression(lambda float64) (*Compression, error) {
	ru, err := rule.New(rule.NameCompression, lambda, 0)
	if err != nil {
		return nil, fmt.Errorf("amoebot: %w", err)
	}
	return NewMetropolis(ru)
}

// MustNewCompression is NewCompression but panics on error.
func MustNewCompression(lambda float64) *Compression {
	c, err := NewCompression(lambda)
	if err != nil {
		panic(err)
	}
	return c
}

// Rule returns the rule the protocol runs.
func (c *Metropolis) Rule() *rule.Rule { return c.ru }

// Lambda returns the bias parameter.
func (c *Metropolis) Lambda() float64 { return c.ru.Lambda() }

// ladderAt returns the ladder pricing a's proposal: the rule's own for a
// fixed λ, else the one at the effective λ of (activation step, tail site).
func (c *Metropolis) ladderAt(a *Activation) *rule.Ladder {
	if c.lcache == nil {
		return c.ld
	}
	return c.lcache.At(a.w.activations-1, a.p.tail)
}

// Activate runs one atomic activation of the protocol.
func (c *Metropolis) Activate(a *Activation) {
	if !a.Expanded() {
		// Steps 1–7: contracted phase. One uniform slot draw covers the six
		// expansion directions and, for payload rules, the rotation targets.
		slot := a.RandSlot(c.ru.Slots())
		if slot >= lattice.NumDirs {
			c.rotate(a, slot-lattice.NumDirs)
			return
		}
		d := lattice.Dir(slot)
		if a.OccupiedAt(d) || a.HasExpandedNeighborAtTail() {
			return
		}
		a.Expand(d)
		// Step 5–7: the flag records whether this particle moved first in
		// its neighborhood; a False flag forces contracting back later.
		// The tail's neighbors were just scanned, and only this particle
		// has changed since, so the head's decide.
		a.SetFlag(!a.HasExpandedNeighborAtHead())
		return
	}
	// Steps 8–13: expanded phase. One mask extraction answers the rule's
	// guard and the Metropolis exponent.
	q := a.RandFloat()
	m, expanded := a.MoveMask()
	ok := false
	if expanded && c.ru.Allowed(m) {
		var acc float64
		if c.ru.Stateless() {
			acc = c.ladderAt(a).Move(m)
		} else {
			acc = c.ladderAt(a).MovePay(m, a.moveSame(m))
		}
		ok = q < acc && a.Flag()
	}
	if ok {
		a.ContractToHead()
	} else {
		a.ContractToTail()
	}
}

// rotate proposes the j-th alternative payload state for the contracted
// activating particle and applies the Metropolis filter on the rotation ΔH.
func (c *Metropolis) rotate(a *Activation, j int) {
	q := a.RandFloat()
	s := a.Payload()
	t := c.ru.RotTarget(s, j)
	delta := c.ru.RotDelta(a.sameNeighborMask(s), a.sameNeighborMask(t))
	if q < c.ladderAt(a).Rot(delta) {
		a.setPayload(t)
	}
}
