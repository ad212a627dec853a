package grid

import (
	"sops/internal/lattice"
)

// Per-cell payload: an optional byte of rule state (an orientation spin, a
// phase bit, …) attached to every occupied cell, stored in a dense array
// parallel to the occupancy bits — pay[bitIndex(p)] is the payload of p. The
// array obeys the same window discipline as the occupancy words: it is
// reallocated by reshape, preserved across grow, carried by Move, and
// cleared by Remove, so the (occupancy, payload) pair of every particle
// survives any sequence of window reallocations. Unoccupied cells always
// read payload 0.
//
// Payload storage is off until EnablePayload so the compression hot paths
// (which never touch payloads) pay nothing for the feature.

// EnablePayload allocates the per-cell payload array (all zero). It is
// idempotent.
func (g *Grid) EnablePayload() {
	if g.pay == nil {
		g.pay = make([]uint8, len(g.words)<<6)
	}
}

// Payload returns the payload byte of p, or 0 when p is unoccupied, outside
// the window, or payloads are disabled.
func (g *Grid) Payload(p lattice.Point) uint8 {
	if g.pay == nil || !g.inWindow(p) {
		return 0
	}
	return g.pay[g.bitIndex(p)]
}

// SetPayload writes the payload byte of the occupied cell p. Payloads must
// be enabled and p occupied; both are programmer errors otherwise, caught by
// the occupancy panic below.
func (g *Grid) SetPayload(p lattice.Point, v uint8) {
	if !g.Has(p) {
		panic("grid: SetPayload on unoccupied cell")
	}
	g.pay[g.bitIndex(p)] = v
}

// SameNeighborMask returns the 6-bit mask (bit d = direction u(d), matching
// Window.NeighborMask order) of the occupied neighbors of l whose payload
// equals s. l must be occupied: the margin invariant then keeps all six
// neighbors inside the window.
func (g *Grid) SameNeighborMask(l lattice.Point, s uint8) uint8 {
	idx := g.bitIndex(l)
	var m uint8
	for d, delta := range g.off.Nbr {
		j := idx + delta
		if g.bit(j) != 0 && g.pay[j] == s {
			m |= 1 << d
		}
	}
	return m
}

// PairSame filters the pair mask m of the move (l, l′ = l+d) down to the
// cells whose payload equals s: the "same-state submask" a payload rule's
// Hamiltonian tables are indexed by. l must be occupied (margin invariant);
// m must be g.PairMask(l, d).
func (g *Grid) PairSame(l lattice.Point, d lattice.Dir, m Mask, s uint8) Mask {
	if m == 0 {
		return 0
	}
	idx := g.bitIndex(l)
	deltas := &g.off.Mask[d]
	var same Mask
	for k := 0; k < 8; k++ {
		if m>>uint(k)&1 == 1 && g.pay[idx+deltas[k]] == s {
			same |= 1 << uint(k)
		}
	}
	return same
}

// cellDirtyOffsets lists every cell within lattice distance 2 of a center
// cell, the center included. After a payload change at l (occupancy
// untouched) these offsets cover every cell whose move weights can depend on
// l's payload: pair masks read cells at distance ≤ 2, payload-rule neighbor
// terms at distance ≤ 1.
var cellDirtyOffsets = lattice.Disk(lattice.Point{}, 2)

// OccupiedNearCell appends to buf every occupied cell at lattice distance
// ≤ 2 from l, including l itself when occupied: the dirty neighborhood of a
// payload change (rotation) at l. Callers typically pass buf[:0] of a
// reusable slice to avoid allocation.
func (g *Grid) OccupiedNearCell(l lattice.Point, buf []lattice.Point) []lattice.Point {
	for _, off := range cellDirtyOffsets {
		if q := l.Add(off); g.Has(q) {
			buf = append(buf, q)
		}
	}
	return buf
}
