// Package kmc implements a rejection-free (kinetic Monte Carlo, BKL-style)
// formulation of the sequential Metropolis engine for local stochastic
// rules, canonically the compression Markov chain M. The Metropolis chain
// in internal/chain spends most proposals on moves that are rejected — the
// uniformly chosen (particle, slot) pair is usually invalid under the
// rule's guard, and at compressing bias λ > 2+√2 the Metropolis filter
// rejects most of the rest — so its wall-clock is dominated by work that
// never changes the configuration. This engine instead maintains the total
// acceptance weight of every particle,
//
//	W_i = Σ_slot  valid(i, slot) · min(1, λ^{ΔH}),
//
// summed over the six translation slots plus, for rules with payload
// rotations, one slot per alternative state — in a Fenwick sum-tree,
// samples the next applied event directly with probability proportional to
// its weight, and advances the step counter by a geometrically distributed
// hold time — the number of Metropolis iterations the chain would have
// idled at the current state. The resulting process is equal in
// distribution to the Metropolis chain observed at the same step counts
// (the hold time K ~ Geometric(W/(S·n)) with S = slots per particle is
// exactly the Metropolis waiting time, and geometric memorylessness makes
// carrying a partial hold across Run calls exact), so stationary
// measurements, 200·n² stopping rules, and statistics transfer unchanged;
// only the trajectory's random-number consumption differs.
//
// The chain caches every particle's packed masks (grid.PackedMasks), for
// every rule. After each applied translation (ℓ → ℓ′) only the particles
// whose neighborhood masks can see ℓ or ℓ′ — the dirty neighborhood, the 23
// cells of grid.DirtyOffsets — are re-classified, each from its cache with
// one XOR of the bits that read ℓ or ℓ′ (dirtyFlips); only the mover
// re-reads a window. The one walk prices a stateless rule's dirty neighbor
// with packedWeight and hands a payload rule's to priceSlots, which adds
// the payload-dependent same-state masks from the grid. A payload rotation
// leaves occupancy alone and dirties only the rotating cell's radius-2
// neighborhood (grid.OccupiedNearCell). An event therefore costs O(log n)
// for the weighted sampling plus O(1) reweighting. Per-slot weights come
// from the same rule.Ladder the Metropolis engine prices its proposals
// with: the two engines cannot disagree on the move set by construction,
// and rule.Compression(λ) reproduces the pre-rule engine bit for bit. An
// ablated chain is a rule.CompressionVariant run through NewWithRule, and
// every construction goes through Reset.
//
// The chain embeds seq.State, as internal/chain does: the grid, the
// particles, the rule, H(σ), the hole flag behind Perimeter and HoleFree,
// and the one PCG stream every draw comes from. Each hold, Fenwick search
// and slot choice takes one Float64 from it.
package kmc

import (
	"fmt"
	"math"
	"math/bits"

	"sops/internal/config"
	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/rule"
	"sops/internal/seq"
)

// rebuildEvery bounds floating-point drift: after this many applied events
// the Fenwick tree is rebuilt exactly from the stored per-particle weights.
const rebuildEvery = 1 << 16

// Chain is a running rejection-free instance of a local rule. It is not
// safe for concurrent use; run independent chains in separate goroutines.
// Its zero value is ready for Reset.
type Chain struct {
	seq.State
	idx pindex
	fen fenwick
	// wj[i] is the authoritative total weight of particle i, always the
	// exact recomputation over its slots; the Fenwick tree mirrors it up
	// to floating-point drift.
	wj []float64
	// pk[i] caches particle i's occupancy masks:
	// pk[i] == G.Window(Pts[i]).Packed() after every event. A move
	// updates a dirty neighbor's entry with one XOR (dirtyFlips) instead
	// of re-reading its window.
	pk []grid.PackedMasks

	// A biased rule's effective λ is constant on [epoch, epochEnd); every
	// maintained weight is priced at its ladder for epoch (LadderAt), and
	// Run never lets an event fire past epochEnd — advanceEpoch refreshes
	// every cached weight when the boundary is crossed. Both are zero for
	// fixed-λ rules.
	epoch    uint64
	epochEnd uint64

	steps  uint64 // Metropolis-equivalent iterations, including holds
	events uint64 // applied events (translations + rotations)
	moves  uint64 // applied translations
	rots   uint64 // applied rotations
	// hold is the number of equivalent steps remaining until the next
	// sampled event fires; 0 means the next hold has not been sampled yet.
	hold               uint64
	eventsSinceRebuild int
	// dirtyPts and dirtyIdx collect the particles a rotation or a payload
	// rule's translation re-prices.
	dirtyPts []lattice.Point
	dirtyIdx [nDirty]int32
	// slotBuf holds a payload particle's slot weights while drawSlot
	// samples them, and priceSlots' scratch afterwards.
	slotBuf []float64
}

// New creates a rejection-free compression chain over a copy of the
// starting configuration σ0, which must be non-empty and connected, with
// bias parameter λ > 0: NewWithRule(σ0, rule.Compression(λ), seed) once λ
// is checked. The chain is deterministic given (σ0, λ, seed); its
// trajectories are not step-for-step comparable to internal/chain (the two
// consume randomness differently) but agree in distribution. An ablated
// chain is NewWithRule over rule.CompressionVariant.
func New(sigma0 *config.Config, lambda float64, seed uint64) (*Chain, error) {
	if err := rule.ValidateLambda(lambda); err != nil {
		return nil, fmt.Errorf("kmc: %w", err)
	}
	return NewWithRule(sigma0, rule.Compression(lambda), seed)
}

// NewWithRule creates a rejection-free chain running an arbitrary compiled
// rule over a copy of σ0, which must be non-empty and connected: it checks
// that σ0 is connected and resets a zero Chain over its points. Payload
// rules draw the initial per-particle states from the chain's own
// randomness (seq.State.Reset, as chain.NewWithRule does), so the
// trajectory is deterministic given (σ0, rule, seed).
func NewWithRule(sigma0 *config.Config, ru *rule.Rule, seed uint64) (*Chain, error) {
	if !sigma0.Connected() {
		return nil, fmt.Errorf("kmc: starting configuration must be connected")
	}
	c := new(Chain)
	if err := c.Reset(sigma0.Points(), ru, seed); err != nil {
		return nil, err
	}
	return c, nil
}

// classify fills the mask cache and every particle's weight from the
// current grid, then rebuilds the Fenwick tree exactly.
func (c *Chain) classify() {
	c.pk = resize(c.pk, len(c.Pts))
	for i, p := range c.Pts {
		c.pk[i] = c.G.Window(p).Packed()
		c.wj[i] = c.particleWeight(i)
	}
	c.fen.rebuild(c.wj)
}

// Reset re-initializes the chain in place to run rule ru from the starting
// configuration pts with a fresh seed (seq.State.Reset, whose conditions on
// pts apply), producing a trajectory bit-identical to NewWithRule on the
// same (configuration, rule, seed) while reusing the grid window, the
// particle index, the Fenwick tree, and every scratch buffer. It is the
// arena fast path for sweep runners.
func (c *Chain) Reset(pts []lattice.Point, ru *rule.Rule, seed uint64) error {
	if err := c.State.Reset(pts, ru, seed); err != nil {
		return fmt.Errorf("kmc: %w", err)
	}
	c.epoch, c.epochEnd = 0, ru.BiasEpoch()
	if !c.Stateless {
		c.slotBuf = resize(c.slotBuf, c.Slots)
	}
	c.idx.reshape(c.Pts)
	c.wj = resize(c.wj, len(c.Pts))
	c.fen.reset(len(c.Pts))
	c.classify()
	c.steps, c.events, c.moves, c.rots = 0, 0, 0, 0
	c.hold = 0
	c.eventsSinceRebuild = 0
	return nil
}

// resize returns a slice of length n, reusing buf's capacity when it
// suffices. Contents are unspecified; callers overwrite every element.
func resize[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// MustNew is New but panics on error.
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

// particleWeight returns the total acceptance weight of particle i: the sum
// over its slots of the slot weight, priced from its cached masks pk[i] by
// packedWeight (stateless rules) or priceSlots (payload rules). The
// summation order is fixed (directions ascending, then rotation targets
// ascending), so equal configurations always produce bit-identical weights.
func (c *Chain) particleWeight(i int) float64 {
	p := c.Pts[i]
	if c.Stateless {
		return packedWeight(c.pk[i], c.LadderAt(c.epoch, p))
	}
	return c.priceSlots(p, c.pk[i], c.slotBuf, c.LadderAt(c.epoch, p))
}

// packedWeight computes a stateless particle's total weight from its packed
// masks: one ladder lookup per unoccupied direction, summed in direction
// order (the order fixes the floating-point fold, keeping weights
// bit-reproducible). A fully surrounded particle sums nothing.
func packedWeight(pm grid.PackedMasks, ld *rule.Ladder) float64 {
	empty := ^pm.NeighborMask() & (1<<lattice.NumDirs - 1)
	var sum float64
	for ; empty != 0; empty &= empty - 1 {
		sum += ld.Move(grid.Mask(uint8(pm >> (8 * bits.TrailingZeros8(empty)))))
	}
	return sum
}

// priceSlots fills ws (length Slots) with the payload particle at p's
// per-slot weights in the canonical order — translation directions
// ascending, then rotation targets ascending skipping its current state —
// and returns their sum. Occupancy and pair masks come from pm, the
// particle's packed masks; the same-state masks come from the grid's
// payloads. Every payload-path consumer (the maintained wj, the event
// sampler, the observer APIs) goes through this one fold, so the "slot sum
// equals wj[i]" invariant the sampler relies on holds bit-for-bit. ld is
// the particle's ladder (LadderAt).
func (c *Chain) priceSlots(p lattice.Point, pm grid.PackedMasks, ws []float64, ld *rule.Ladder) float64 {
	s := c.G.Payload(p)
	var sum float64
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		w := 0.0
		if pm.NeighborMask()>>d&1 == 0 {
			if m := pm.PairMask(d); c.Ru.Allowed(m) {
				w = ld.MovePay(m, c.G.PairSame(p, d, m, s))
			}
		}
		ws[d] = w
		sum += w
	}
	if c.Ru.Rotates() {
		sameOld := c.G.SameNeighborMask(p, s)
		j := lattice.NumDirs
		for t := 0; t < c.Ru.States(); t++ {
			if uint8(t) == s {
				continue
			}
			w := ld.Rot(c.Ru.RotDelta(sameOld, c.G.SameNeighborMask(p, uint8(t))))
			ws[j] = w
			sum += w
			j++
		}
	}
	return sum
}

// Steps returns the number of Metropolis-equivalent iterations elapsed,
// holds included: directly comparable to chain.Chain.Steps.
func (c *Chain) Steps() uint64 { return c.steps }

// Events returns the number of applied events (translations + rotations).
func (c *Chain) Events() uint64 { return c.events }

// Accepted returns the number of applied translations, matching
// chain.Chain.Accepted. For stateless rules every event is a translation,
// so this equals Events.
func (c *Chain) Accepted() uint64 { return c.moves }

// Rotations returns the number of applied payload changes (zero for
// stateless rules).
func (c *Chain) Rotations() uint64 { return c.rots }

// TotalWeight returns W(σ) = Σ_i W_i, the summed acceptance weight of every
// currently valid move. W/(Slots·n) is the per-step probability that the
// Metropolis chain would leave the current state.
func (c *Chain) TotalWeight() float64 { return c.fen.total() }

// ParticleWeight returns the maintained total weight of particle i.
func (c *Chain) ParticleWeight(i int) float64 { return c.wj[i] }

// SlotWeights recomputes the six per-direction translation weights of
// particle i from a fresh read of the grid, not the mask cache. Together
// with RotationWeights their sum equals ParticleWeight(i).
func (c *Chain) SlotWeights(i int) [lattice.NumDirs]float64 {
	var ws [lattice.NumDirs]float64
	p := c.Pts[i]
	ld := c.LadderAt(c.epoch, p)
	if c.Stateless {
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			if !c.G.Has(p.Neighbor(d)) {
				ws[d] = ld.Move(c.G.PairMask(p, d))
			}
		}
		return ws
	}
	buf := make([]float64, c.Slots)
	c.priceSlots(p, c.G.Window(p).Packed(), buf, ld)
	copy(ws[:], buf[:lattice.NumDirs])
	return ws
}

// RotationWeights recomputes the rotation slot weights of particle i from a
// fresh read of the grid, in rotation-slot order (target states ascending,
// skipping the current state). It returns nil for rules without rotations.
func (c *Chain) RotationWeights(i int) []float64 {
	if !c.Ru.Rotates() {
		return nil
	}
	p := c.Pts[i]
	buf := make([]float64, c.Slots)
	c.priceSlots(p, c.G.Window(p).Packed(), buf, c.LadderAt(c.epoch, p))
	return buf[lattice.NumDirs:]
}

// Points returns the current particle locations; index i is the particle
// whose weights ParticleWeight(i) and SlotWeights(i) report.
func (c *Chain) Points() []lattice.Point {
	return append([]lattice.Point(nil), c.Pts...)
}

// sampleHold draws the geometric number of Metropolis-equivalent steps until
// the next event fires, K ~ Geometric(p) with p = W/(S·n) and support {1, 2,
// …} — exactly the Metropolis chain's waiting time at the current state.
// With no valid moves the state is absorbing and the hold is effectively
// infinite.
func (c *Chain) sampleHold() {
	p := c.fen.total() / float64(c.Slots*len(c.Pts))
	if p <= 0 {
		c.hold = math.MaxUint64
		return
	}
	if p >= 1 {
		c.hold = 1
		return
	}
	k := math.Floor(math.Log1p(-c.Rng.Float64()) / math.Log1p(-p))
	if math.IsNaN(k) || k >= math.MaxUint64/2 {
		c.hold = math.MaxUint64
		return
	}
	c.hold = 1 + uint64(k)
}

// fireEvent samples the next applied event proportionally to its acceptance
// weight, applies it, and re-classifies the dirty neighborhood. It reports
// whether an event was applied; false means floating-point drift had left
// the tree claiming weight where there is none, in which case the tree has
// been rebuilt exactly and the caller should resample the hold.
func (c *Chain) fireEvent() bool {
	W := c.fen.total()
	i := c.fen.find(c.Rng.Float64() * W)
	if c.wj[i] == 0 {
		// Floating-point drift steered the prefix search onto a zero-weight
		// leaf; squash the drift and resample.
		c.fen.rebuild(c.wj)
		c.eventsSinceRebuild = 0
		if c.fen.total() <= 0 {
			return false
		}
		i = c.fen.find(c.Rng.Float64() * c.fen.total())
		if c.wj[i] == 0 {
			return false
		}
	}

	if slot := c.drawSlot(i); slot < lattice.NumDirs {
		c.fireTranslation(i, lattice.Dir(slot))
	} else {
		c.fireRotation(i, slot)
	}

	if c.eventsSinceRebuild++; c.eventsSinceRebuild >= rebuildEvery {
		c.fen.rebuild(c.wj)
		c.eventsSinceRebuild = 0
	}
	return true
}

// drawSlot prices particle i's slots from its cached masks (a stateless
// rule's six on the stack, a payload rule's in slotBuf) and draws one ∝ its
// weight: a translation direction below lattice.NumDirs, else a rotation
// slot. The slot weights sum to wj[i] by construction, in the same fold.
func (c *Chain) drawSlot(i int) int {
	l := c.Pts[i]
	ld := c.LadderAt(c.epoch, l)
	ws := c.slotBuf
	var buf [lattice.NumDirs]float64
	var sum float64
	if c.Stateless {
		ws = buf[:]
		pm := c.pk[i]
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			w := 0.0
			if pm.NeighborMask()>>d&1 == 0 {
				w = ld.Move(pm.PairMask(d))
			}
			ws[d] = w
			sum += w
		}
	} else {
		sum = c.priceSlots(l, c.pk[i], ws, ld)
	}
	v := c.Rng.Float64() * sum
	slot := len(ws) - 1
	for k, w := range ws {
		if v -= w; v < 0 {
			slot = k
			break
		}
	}
	if ws[slot] == 0 {
		// v fell off the end through drift; take the last nonzero slot.
		for k := len(ws) - 1; k >= 0; k-- {
			if ws[k] > 0 {
				slot = k
				break
			}
		}
	}
	return slot
}

// fireTranslation moves particle i in direction d, for every rule, and
// re-classifies the dirty neighborhood from the mask cache.
func (c *Chain) fireTranslation(i int, d lattice.Dir) {
	l := c.Pts[i]
	m := c.pk[i].PairMask(d)
	var same grid.Mask
	if !c.Stateless {
		same = c.G.PairSame(l, d, m, c.G.Payload(l))
	}
	c.H += c.Ru.MoveDelta(m, same)
	lp := l.Neighbor(d)
	c.G.MoveMasked(l, lp, m)
	c.Pts[i] = lp
	c.pk[i] = c.G.Window(lp).Packed()
	c.idx.clear(l)
	c.idx.place(lp, int32(i), c.Pts)
	c.events++
	c.moves++
	if c.Log != nil {
		c.Log.Moved(l, lp, c.G.Payload(lp))
	}

	// Re-classify the dirty neighborhood — every occupied cell whose masks
	// can see ℓ or ℓ′, the mover included — in grid.DirtyOffsets order. The
	// move flipped the occupancy of ℓ and ℓ′, so a neighbor's masks change
	// by exactly the bits that read those two cells; the mover's were
	// re-read above and its dirtyFlips entry is zero. A stateless rule's
	// neighbor is priced in the walk by packedWeight, inlined: this loop is
	// the engine's hot path. A payload rule's neighbors are collected and
	// re-priced right after it, in walk order, through priceSlots; a call
	// inside the loop would cost the stateless walk its registers.
	x := &c.idx
	base := x.slot(l)
	deltas := &x.dirty[d]
	flips := &dirtyFlips[d]
	offs := grid.DirtyOffsets(d)
	stateless := c.Stateless
	nd := 0
	for k := range nDirty {
		j := x.id[base+deltas[k]]
		if j < 0 {
			continue
		}
		pk := c.pk[j] ^ flips[k]
		c.pk[j] = pk
		if !stateless {
			c.dirtyIdx[nd] = j
			nd++
			continue
		}
		if w := packedWeight(pk, c.LadderAt(c.epoch, l.Add(offs[k]))); w != c.wj[j] {
			c.fen.add(int(j), w-c.wj[j])
			c.wj[j] = w
		}
	}
	for _, j := range c.dirtyIdx[:nd] {
		c.reprice(int(j))
	}
}

// reprice recomputes particle j's weight from its cached masks and moves
// the Fenwick tree by the change.
func (c *Chain) reprice(j int) {
	if w := c.particleWeight(j); w != c.wj[j] {
		c.fen.add(j, w-c.wj[j])
		c.wj[j] = w
	}
}

// fireRotation applies rotation slot slot of particle i: its payload moves
// to the slot's target state. Occupancy and the mask cache are unchanged;
// the rotating cell's radius-2 neighborhood, itself included, is re-priced.
func (c *Chain) fireRotation(i, slot int) {
	l := c.Pts[i]
	s := c.G.Payload(l)
	t := c.Ru.RotTarget(s, slot-lattice.NumDirs)
	c.H += c.Ru.RotDelta(c.G.SameNeighborMask(l, s), c.G.SameNeighborMask(l, t))
	c.G.SetPayload(l, t)
	c.events++
	c.rots++
	if c.Log != nil {
		c.Log.Rotated(l, t)
	}
	c.dirtyPts = c.G.OccupiedNearCell(l, c.dirtyPts[:0])
	for _, p := range c.dirtyPts {
		c.reprice(int(c.idx.at(p)))
	}
}

// Run advances the chain by exactly n Metropolis-equivalent iterations and
// returns the number of events applied. Partial holds carry across calls
// (geometric memorylessness makes that exact). For biased rules, Run splits
// n at bias-epoch boundaries: no event ever fires under a stale λ, and
// advanceEpoch refreshes every cached weight when a boundary is crossed.
func (c *Chain) Run(n uint64) uint64 {
	if !c.Ru.Biased() {
		return c.run(n)
	}
	var fired uint64
	for n > 0 {
		if c.steps >= c.epochEnd {
			c.advanceEpoch()
		}
		chunk := c.epochEnd - c.steps
		if chunk > n {
			chunk = n
		}
		fired += c.run(chunk)
		n -= chunk
	}
	return fired
}

// advanceEpoch moves the pricing epoch to the one containing the current
// step and reprices every particle at its new λ(epoch, site): the wj are
// recomputed from scratch, the Fenwick tree rebuilt exactly, and the
// pending hold discarded. Discarding the hold is exact, not approximate:
// the geometric hold is memoryless, so resampling it against the refreshed
// total weight is exactly the Metropolis waiting time under the new bias.
func (c *Chain) advanceEpoch() {
	e := c.Ru.BiasEpoch()
	c.epoch = c.steps - c.steps%e
	c.epochEnd = c.epoch + e
	for i := range c.Pts {
		c.wj[i] = c.particleWeight(i)
	}
	c.fen.rebuild(c.wj)
	c.hold = 0
	c.eventsSinceRebuild = 0
}

// run advances by n iterations within one bias epoch (or under a fixed λ).
func (c *Chain) run(n uint64) uint64 {
	var fired uint64
	for n > 0 {
		if c.hold == 0 {
			c.sampleHold()
		}
		if c.hold > n {
			c.hold -= n
			c.steps += n
			return fired
		}
		n -= c.hold
		c.steps += c.hold
		c.hold = 0
		if c.fireEvent() {
			fired++
		}
	}
	return fired
}

// CheckWeightSums verifies every particle's cached masks against a fresh
// window read, every maintained per-particle weight against a recomputation
// from those masks (at the current bias epoch, for biased rules) and the
// Fenwick total against their exact sum. Maintained weights come from the
// same canonical folds the recomputation uses, so they must match
// bit-for-bit; the tree total is allowed bounded floating-point drift. It
// is a test/debug hook with O(n) cost.
func (c *Chain) CheckWeightSums() error {
	var sum float64
	for i, p := range c.Pts {
		if pm := c.G.Window(p).Packed(); pm != c.pk[i] {
			return fmt.Errorf("kmc: particle %d at %v: cached masks %#x, window reads %#x", i, p, uint64(c.pk[i]), uint64(pm))
		}
		w := c.particleWeight(i)
		if w != c.wj[i] {
			return fmt.Errorf("kmc: particle %d at %v: maintained weight %v, recomputed %v", i, p, c.wj[i], w)
		}
		sum += w
	}
	if got := c.fen.total(); math.Abs(got-sum) > 1e-9*math.Max(1, sum) {
		return fmt.Errorf("kmc: fenwick total %v, exact slot sum %v", got, sum)
	}
	return nil
}

// pindex maps occupied lattice cells to particle indices through a dense
// int32 window mirroring the occupancy grid's layout, so the per-event dirty
// loop resolves cells to particles without hashing: one load gives both
// occupancy (-1 is empty) and the particle. It grows by reallocation when a
// particle moves within pindexMargin of its edge (place, the sequential
// engine's dirty walk), or outside the window (set, the sharded engine).
type pindex struct {
	minX, minY, w, h int
	id               []int32
	// dirty[d][k] is the id-slot delta to grid.DirtyOffsets(d)[k]. It
	// depends only on the width, so reshape refills it in place.
	dirty [lattice.NumDirs][nDirty]int
}

const pindexSlack = 8

// pindexMargin is how far the dirty offsets of a move reach from the mover's
// old cell ℓ (the radius-2 disks around ℓ and ℓ′ span [−3, 3]² in axial
// coordinates). place keeps every particle at least this far inside the
// window, so the walk from ℓ needs no bounds checks.
const pindexMargin = 3

// nDirty is len(grid.DirtyOffsets(d)) for every direction d: the cells
// within distance 2 of ℓ or ℓ′ = ℓ+u(d), ℓ itself excluded.
const nDirty = 23

// dirtyFlips[d][k] holds the PackedMasks bits of the cell at
// grid.DirtyOffsets(d)[k] (relative to ℓ) that read ℓ or ℓ′ = ℓ+u(d). A
// move ℓ → ℓ′ flips the occupancy of exactly those two cells, and every
// packed bit copies one window bit, so XOR-ing the entry into the cell's
// cached masks yields its masks after the move. The entry at ℓ′ itself is
// zero: that cell is the mover, whose masks are re-read there instead.
var dirtyFlips = func() (flips [lattice.NumDirs][nDirty]grid.PackedMasks) {
	// packedAt is the Packed image of a Window holding only the cell at
	// offset r from the center: the packed bits that read that cell.
	packedAt := func(r lattice.Point) grid.PackedMasks {
		if r.X < -2 || r.X > 2 || r.Y < -2 || r.Y > 2 {
			return 0
		}
		return grid.Window(1 << ((r.Y+2)*5 + r.X + 2)).Packed()
	}
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		offs := grid.DirtyOffsets(d)
		if len(offs) != nDirty {
			panic(fmt.Sprintf("kmc: %d dirty offsets in direction %d, want %d", len(offs), d, nDirty))
		}
		for k, off := range offs {
			if off != d.Vec() {
				flips[d][k] = packedAt(lattice.Point{}.Sub(off)) ^ packedAt(d.Vec().Sub(off))
			}
		}
	}
	return flips
}()

func newPindex(pts []lattice.Point) *pindex {
	x := &pindex{}
	x.reshape(pts)
	return x
}

// reshape sizes the window to the bounding box of pts plus slack and indexes
// every point.
func (x *pindex) reshape(pts []lattice.Point) {
	min, max := pts[0], pts[0]
	for _, p := range pts[1:] {
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	x.minX, x.minY = min.X-pindexSlack, min.Y-pindexSlack
	x.w, x.h = max.X-x.minX+pindexSlack+1, max.Y-x.minY+pindexSlack+1
	if need := x.w * x.h; cap(x.id) >= need {
		x.id = x.id[:need]
	} else {
		x.id = make([]int32, need)
	}
	for k := range x.id {
		x.id[k] = -1
	}
	for i, p := range pts {
		x.id[x.slot(p)] = int32(i)
	}
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		for k, off := range grid.DirtyOffsets(d) {
			x.dirty[d][k] = off.Y*x.w + off.X
		}
	}
}

// slot returns p's position in id; p must be inside the window for the
// result to address it.
func (x *pindex) slot(p lattice.Point) int {
	return (p.Y-x.minY)*x.w + (p.X - x.minX)
}

func (x *pindex) contains(p lattice.Point) bool {
	cx, cy := p.X-x.minX, p.Y-x.minY
	return cx >= 0 && cy >= 0 && cx < x.w && cy < x.h
}

// at returns the particle index at p, which must be an indexed cell.
func (x *pindex) at(p lattice.Point) int32 {
	return x.id[x.slot(p)]
}

// clear removes the index entry at p (p must be inside the window).
func (x *pindex) clear(p lattice.Point) {
	x.id[x.slot(p)] = -1
}

// set records particle i at p, reshaping around all current points when p
// falls outside the window. Only the sharded engine uses set, contains and
// newPindex.
func (x *pindex) set(p lattice.Point, i int32, all []lattice.Point) {
	if !x.contains(p) {
		x.reshape(all)
		return
	}
	x.id[x.slot(p)] = i
}

// place is set for the sequential engine: it also reshapes when p comes
// within pindexMargin of the edge, so the dirty walk around p's next move
// stays inside the window.
func (x *pindex) place(p lattice.Point, i int32, all []lattice.Point) {
	cx, cy := p.X-x.minX, p.Y-x.minY
	if cx < pindexMargin || cy < pindexMargin || cx >= x.w-pindexMargin || cy >= x.h-pindexMargin {
		x.reshape(all)
		return
	}
	x.id[x.slot(p)] = i
}
