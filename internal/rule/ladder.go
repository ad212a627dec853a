package rule

import (
	"math"

	"sops/internal/grid"
	"sops/internal/lattice"
)

// Ladder prices a rule's proposals at one bias λ: a valid move or payload
// change of ΔH is accepted (chain M, Algorithm A) and weighted (kMC) with
// min(1, λ^ΔH). The cap never changes a Metropolis decision, since the
// coin is drawn in [0, 1). A compiled Rule carries its ladder at its own λ
// (Rule.Ladder); biased engines hold one more per effective λ
// (LadderCache), over the same guard and Hamiltonian deltas. Ladders are
// immutable after construction and safe for concurrent use.
type Ladder struct {
	r      *Rule
	lambda float64

	// move[m] prices a stateless translation with pair mask m, zero where
	// the guard fails. One table serves all six directions because masks
	// are canonical in the move direction.
	move [256]float64
	// pow[k+deltaBound] is min(1, λ^k) for k ∈ [−deltaBound, deltaBound]:
	// the price of payload translations and rotations.
	pow [2*deltaBound + 1]float64
}

// newLadder tabulates r's prices at a λ that ValidateLambda accepts.
func newLadder(r *Rule, lambda float64) *Ladder {
	l := &Ladder{r: r, lambda: lambda}
	for k := -deltaBound; k <= deltaBound; k++ {
		l.pow[k+deltaBound] = math.Min(1, math.Pow(lambda, float64(k)))
	}
	for m := 0; m < 256; m++ {
		if r.valid[m] {
			l.move[m] = l.pow[int(r.occ[m])+deltaBound]
		}
	}
	return l
}

// LadderFor rebuilds the rule's pricing at bias λ. It rejects λ that
// ValidateLambda rejects.
func (r *Rule) LadderFor(lambda float64) (*Ladder, error) {
	if err := ValidateLambda(lambda); err != nil {
		return nil, err
	}
	return newLadder(r, lambda), nil
}

// Lambda returns the bias the ladder prices at.
func (l *Ladder) Lambda() float64 { return l.lambda }

// Move prices a stateless translation with pair mask m: min(1, λ^ΔH), zero
// where the guard fails.
func (l *Ladder) Move(m grid.Mask) float64 { return l.move[m] }

// MovePay prices a payload translation with pair mask m and same-state
// submask same: min(1, λ^ΔH), zero where the guard fails.
func (l *Ladder) MovePay(m, same grid.Mask) float64 {
	if !l.r.valid[m] {
		return 0
	}
	return l.pow[int(l.r.occ[m])+int(l.r.pay[same])+deltaBound]
}

// Rot prices a payload change of ΔH = delta (Rule.RotDelta): min(1, λ^delta).
func (l *Ladder) Rot(delta int) float64 { return l.pow[delta+deltaBound] }

// MoveTable returns a copy of the stateless translation table, for engines
// that index it directly on the hot path.
func (l *Ladder) MoveTable() [256]float64 { return l.move }

// LadderCache memoizes LadderFor over the λ values a bias schedule emits.
// Schedules take few distinct values (foraging takes two), so lookup is a
// linear scan over the values seen so far. A cache is NOT safe for
// concurrent use — engines keep one each; the Ladders themselves may be
// shared freely.
type LadderCache struct {
	r       *Rule
	ladders []*Ladder
}

// NewLadderCache returns an empty cache over r's ladders.
func NewLadderCache(r *Rule) *LadderCache {
	if r == nil {
		panic("rule: NewLadderCache on nil rule")
	}
	return &LadderCache{r: r}
}

// Get returns the rule's ladder at λ, building it on first sight. It panics
// on λ that ValidateLambda rejects: bias schedules promise ladder-safe
// values, so an unsafe λ here is a schedule bug.
func (c *LadderCache) Get(lambda float64) *Ladder {
	for _, l := range c.ladders {
		if l.lambda == lambda {
			return l
		}
	}
	l, err := c.r.LadderFor(lambda)
	if err != nil {
		panic(err)
	}
	c.ladders = append(c.ladders, l)
	return l
}

// At returns the ladder pricing a proposal by the particle at site during
// the epoch containing step: Get(BiasAt(step, site)).
func (c *LadderCache) At(step uint64, site lattice.Point) *Ladder {
	return c.Get(c.r.BiasAt(step, site))
}

// Len returns the number of distinct λ values cached so far.
func (c *LadderCache) Len() int { return len(c.ladders) }
