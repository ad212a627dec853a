package amoebot

import (
	"math/rand/v2"

	"sops/internal/grid"
	"sops/internal/lattice"
)

// Protocol is the algorithm each particle runs upon activation. Activations
// are atomic: the protocol observes and mutates the world only through the
// Activation's local API, matching the amoebot model's constant-size-memory,
// neighbors-only constraints.
type Protocol interface {
	Activate(a *Activation)
}

// Activation is the window a particle gets into the world during one atomic
// activation. Every method inspects or affects only the activating
// particle's ≤10-node neighborhood.
//
// The World reuses one Activation for all its activations, so an
// *Activation is valid only during the Activate call it is passed to;
// protocols must not retain it.
type Activation struct {
	w   *World
	p   *Particle
	rng *rand.Rand
}

// Expanded reports whether the activating particle is expanded.
func (a *Activation) Expanded() bool { return a.p.Expanded() }

// Flag returns the particle's one-bit persistent memory.
func (a *Activation) Flag() bool { return a.p.flag }

// SetFlag writes the particle's one-bit persistent memory.
func (a *Activation) SetFlag(v bool) { a.p.flag = v }

// RandDir returns a uniformly random lattice direction.
func (a *Activation) RandDir() lattice.Dir { return lattice.Dir(a.rng.IntN(lattice.NumDirs)) }

// RandSlot returns a uniformly random proposal slot in [0, slots). With
// slots == lattice.NumDirs it consumes randomness exactly as RandDir, which
// keeps compression trajectories bit-identical to the pre-rule protocol.
func (a *Activation) RandSlot(slots int) int { return a.rng.IntN(slots) }

// RandFloat returns a uniform q ∈ [0, 1).
func (a *Activation) RandFloat() float64 { return a.rng.Float64() }

// OccupiedAt reports whether the node adjacent to the particle's tail in
// direction d holds any particle (head or tail).
func (a *Activation) OccupiedAt(d lattice.Dir) bool {
	return a.w.occupied(a.p.tail.Neighbor(d))
}

// HasExpandedNeighborAtTail reports whether any particle adjacent to the
// tail node is expanded (other than the activating particle itself).
func (a *Activation) HasExpandedNeighborAtTail() bool {
	return a.w.hasExpandedNeighbor(a.p.tail, a.p.id)
}

// HasExpandedNeighborAtHead reports whether any particle adjacent to the
// head node is expanded (other than the activating particle itself).
func (a *Activation) HasExpandedNeighborAtHead() bool {
	return a.w.hasExpandedNeighbor(a.p.head, a.p.id)
}

// Expand moves the particle's head into the adjacent node in direction d.
// It reports false (and does nothing) if the particle is already expanded or
// the node is occupied.
func (a *Activation) Expand(d lattice.Dir) bool {
	if a.p.Expanded() || a.w.occupied(a.p.tail.Neighbor(d)) {
		return false
	}
	a.w.expand(a.p, d)
	return true
}

// MoveMask returns the raw canonical pair mask of the expanded particle's
// (tail, head) pair over N*(·) — the index into a rule's compiled guard and
// Hamiltonian tables, and through move.Classify the pair's Property 1,
// Property 2, e = |N*(ℓ)| and e′ = |N*(ℓ′)| (Algorithm A, step 11). The
// ten nodes around the pair are read from the tail grid, which holds
// exactly the tails (heads are invisible) and never counts the particle's
// own tail. The second return is false if the particle is not expanded.
func (a *Activation) MoveMask() (grid.Mask, bool) {
	if !a.p.Expanded() {
		return 0, false
	}
	return a.w.tails.PairMask(a.p.tail, a.p.dir), true
}

// Payload returns the activating particle's payload state (0 for stateless
// protocols). The payload lives at the particle's tail cell, so it rides
// along automatically when a relocation completes.
func (a *Activation) Payload() uint8 { return a.w.tails.Payload(a.p.tail) }

// setPayload writes the activating particle's payload state.
func (a *Activation) setPayload(v uint8) {
	a.w.tails.SetPayload(a.p.tail, v)
	a.w.rotations++
	if a.w.mlog != nil {
		a.w.mlog.Rotated(a.p.tail, v)
	}
}

// sameNeighborMask returns the 6-bit mask of tail neighbors of the
// activating particle's tail whose payload equals s.
func (a *Activation) sameNeighborMask(s uint8) uint8 {
	return a.w.tails.SameNeighborMask(a.p.tail, s)
}

// moveSame filters the expanded particle's pair mask m down to the cells
// whose payload equals the particle's own.
func (a *Activation) moveSame(m grid.Mask) grid.Mask {
	return a.w.tails.PairSame(a.p.tail, a.p.dir, m, a.Payload())
}

// ContractToHead completes the particle's relocation.
func (a *Activation) ContractToHead() {
	if a.p.Expanded() {
		a.w.contractToHead(a.p, a.w.tails.PairMask(a.p.tail, a.p.dir))
	}
}

// ContractToTail withdraws the particle's head, aborting the relocation.
func (a *Activation) ContractToTail() {
	if a.p.Expanded() {
		a.w.contractToTail(a.p)
	}
}
