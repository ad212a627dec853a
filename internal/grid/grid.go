// Package grid implements a dense, bit-packed occupancy store over a bounded
// window of the triangular lattice. It is the engine under the hot paths of
// the simulator: one bit per lattice cell in row-strided uint64 words, so
// Has/Degree/Move are O(1) pointer-free array arithmetic with zero heap
// allocation per call, in contrast to the map-backed config.Config.
//
// The window is sized from the initial occupancy plus slack and grows by
// reallocation whenever a particle is placed near the border, so the grid
// presents the same unbounded-lattice semantics as a map: any point may be
// queried (out-of-window points read as unoccupied) and any point may be
// occupied.
//
// Beyond plain occupancy the grid maintains e(σ) (the induced edge count)
// incrementally across Add/Remove/Move, and extracts the 8-cell neighborhood
// mask of a move pair (ℓ, ℓ′ = ℓ+d) in canonical orientation-independent bit
// order — the index into the 256-entry move-validity tables built by
// internal/move. Boundary-walk Perimeter and HasHoles round out the
// bookkeeping the chain needs before it reaches the hole-free space.
//
// Layout in one line: the bit slot of point p is
//
//	(p.Y - minY)·(stride·64) + (p.X - minX)
//
// i.e. rows of stride uint64 words, one bit per cell, with a 2-cell margin
// between every occupied cell and the window border so that mask extraction
// and degree counts (offsets of magnitude ≤ 2) never need bounds checks.
// DESIGN.md draws the full layout and the Mask bit ordering.
//
// A Grid is not safe for concurrent use.
package grid

import (
	"fmt"
	"math/bits"

	"sops/internal/lattice"
)

// margin is the minimum distance (in cells) every occupied cell keeps from
// the window border. With margin 2 every cell a mask extraction or degree
// count can touch (offsets of magnitude ≤ 2 around an occupied cell) is
// inside the window, so the hot paths need no bounds checks.
const margin = 2

// DefaultSlack is the default padding added around the initial bounding box.
const DefaultSlack = 16

// minSlack keeps reallocation from thrashing and guarantees margin holds
// right after a grow.
const minSlack = margin + 2

// Mask is the occupancy bitmap of the 8 cells in N(ℓ ∪ ℓ′) — the neighbors
// of a move pair (ℓ, ℓ′ = ℓ+d), excluding ℓ and ℓ′ themselves — in canonical
// bit order. Writing u(k) for the lattice direction d rotated k·60° CCW, the
// bits are:
//
//	bit 0  S1 = ℓ + u(1)    common neighbor of ℓ and ℓ′, CCW side
//	bit 1  S2 = ℓ + u(5)    common neighbor of ℓ and ℓ′, CW side
//	bit 2  A1 = ℓ + u(2)    exclusive neighbors of ℓ
//	bit 3  A2 = ℓ + u(3)
//	bit 4  A3 = ℓ + u(4)
//	bit 5  B1 = ℓ′ + u(1)   exclusive neighbors of ℓ′
//	bit 6  B2 = ℓ′ + u(0)
//	bit 7  B3 = ℓ′ + u(5)
//
// Because the layout is defined relative to d, the same mask value describes
// the same local geometry for every direction: tables indexed by Mask are
// direction-independent.
type Mask uint8

// The mask bits, named as in the Mask documentation.
const (
	MaskS1 Mask = 1 << iota
	MaskS2
	MaskA1
	MaskA2
	MaskA3
	MaskB1
	MaskB2
	MaskB3
)

// MaskNearL selects the bits adjacent to ℓ; with ℓ′ unoccupied,
// popcount(m & MaskNearL) is deg(ℓ).
const MaskNearL = MaskS1 | MaskS2 | MaskA1 | MaskA2 | MaskA3

// MaskNearLp selects the bits adjacent to ℓ′; popcount(m & MaskNearLp) is
// the degree ℓ′ would have after the move, i.e. deg(ℓ′) excluding ℓ.
const MaskNearLp = MaskS1 | MaskS2 | MaskB1 | MaskB2 | MaskB3

// MaskOffsets returns the lattice offsets, relative to ℓ, of the 8 mask
// cells for a move in direction d, in bit order. It is the reference
// definition of the Mask layout, used by table builders and tests.
func MaskOffsets(d lattice.Dir) [8]lattice.Point {
	u := func(k int) lattice.Point { return d.CCW(k).Vec() }
	lp := u(0)
	return [8]lattice.Point{
		u(1), u(5), u(2), u(3), u(4),
		lp.Add(u(1)), lp.Add(u(0)), lp.Add(u(5)),
	}
}

// dirtyOffsets[d] lists, relative to ℓ, every cell with a lattice distance
// ≤ 2 from ℓ or from ℓ′ = ℓ+u(d), excluding ℓ itself. A cell's PairMask (any
// direction) and degree read only cells within distance 2 of it, so after
// occupancy flips at ℓ and ℓ′ these offsets cover every cell whose cached
// move classification could have changed. DirtyOffsets is the reference
// definition.
var dirtyOffsets = buildDirtyOffsets()

func buildDirtyOffsets() (offs [lattice.NumDirs][]lattice.Point) {
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		seen := map[lattice.Point]bool{{X: 0, Y: 0}: true}
		for _, center := range [2]lattice.Point{{}, d.Vec()} {
			for _, p := range lattice.Disk(center, 2) {
				if !seen[p] {
					seen[p] = true
					offs[d] = append(offs[d], p)
				}
			}
		}
	}
	return offs
}

// DirtyOffsets returns the offsets, relative to ℓ, of every cell whose move
// classification (PairMask in any direction, or degree) can depend on the
// occupancy of ℓ or ℓ′ = ℓ+d: the union of the radius-2 disks around the two
// endpoints, minus ℓ itself. It is the reference definition of the dirty
// neighborhood an engine caching per-particle move weights re-classifies
// after a move.
func DirtyOffsets(d lattice.Dir) []lattice.Point {
	return dirtyOffsets[d]
}

// Grid is the bit-packed occupancy window. The zero value is not usable;
// construct with New.
type Grid struct {
	minX, minY int // lattice coordinates of cell index (0, 0)
	w, h       int // window size in cells
	stride     int // words per row; a row spans stride*64 bit slots
	words      []uint64
	// pay is the optional per-cell payload array, indexed like the bit
	// slots (pay[bitIndex(p)]); nil until EnablePayload. See payload.go.
	pay   []uint8
	n     int // occupied cells
	edges int // induced edges e(σ), maintained incrementally
	slack int

	// off holds the bit-index offsets of a cell's neighbors and move masks;
	// they depend only on the stride, so they are rebuilt on grow.
	off Offsets

	arcScratch []uint64 // visited-arc bitset reused by boundary walks
}

// New returns a grid occupying exactly the given points, with the window
// sized to their bounding box plus slack cells on every side. Non-positive
// slack selects DefaultSlack. Duplicate points are collapsed.
func New(pts []lattice.Point, slack int) *Grid {
	if slack <= 0 {
		slack = DefaultSlack
	}
	if slack < minSlack {
		slack = minSlack
	}
	g := &Grid{slack: slack}
	min, max := lattice.Point{}, lattice.Point{}
	if len(pts) > 0 {
		min, max = pts[0], pts[0]
		for _, p := range pts[1:] {
			min, max = boundsExtend(min, max, p)
		}
	}
	g.reshape(min, max)
	for _, p := range pts {
		g.Add(p)
	}
	return g
}

func boundsExtend(min, max, p lattice.Point) (lattice.Point, lattice.Point) {
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
	return min, max
}

// reshape allocates an empty window covering [min, max] plus slack and
// rebuilds the stride-dependent deltas. Occupancy is not preserved; callers
// re-add bits.
func (g *Grid) reshape(min, max lattice.Point) {
	g.minX, g.minY = min.X-g.slack, min.Y-g.slack
	g.w, g.h = max.X-g.minX+g.slack+1, max.Y-g.minY+g.slack+1
	g.stride = (g.w + 63) / 64
	// Reuse the word capacity when it suffices (Reset-heavy workloads
	// reshape constantly); Clone never shares these arrays, so an in-place
	// reuse cannot corrupt a copy.
	if need := g.stride * g.h; cap(g.words) >= need {
		g.words = g.words[:need]
		clear(g.words)
	} else {
		g.words = make([]uint64, need)
	}
	if g.pay != nil {
		if need := len(g.words) << 6; cap(g.pay) >= need {
			g.pay = g.pay[:need]
			clear(g.pay)
		} else {
			g.pay = make([]uint8, need)
		}
	}
	g.arcScratch = nil
	sb := g.stride << 6
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		v := d.Vec()
		g.off.Nbr[d] = v.Y*sb + v.X
		for k, off := range MaskOffsets(d) {
			g.off.Mask[d][k] = off.Y*sb + off.X
		}
	}
}

// grow reallocates the window so it covers the current occupancy and p with
// fresh slack on every side, preserving all occupied cells.
func (g *Grid) grow(p lattice.Point) {
	min, max := p, p
	pts := g.Points()
	for _, q := range pts {
		min, max = boundsExtend(min, max, q)
	}
	// Grow the slack with the window so a particle random-walking outward
	// triggers geometrically fewer reallocations.
	if span := max.X - min.X + max.Y - min.Y; g.slack < span/4 {
		g.slack = span / 4
	}
	var vals []uint8
	if g.pay != nil {
		vals = make([]uint8, len(pts))
		for i, q := range pts {
			vals[i] = g.pay[g.bitIndex(q)]
		}
	}
	n, edges := g.n, g.edges
	g.reshape(min, max)
	for i, q := range pts {
		g.setBit(g.bitIndex(q))
		if vals != nil {
			g.pay[g.bitIndex(q)] = vals[i]
		}
	}
	g.n, g.edges = n, edges
}

// bitIndex returns the bit slot of p, which must lie inside the window.
func (g *Grid) bitIndex(p lattice.Point) int {
	return (p.Y-g.minY)*(g.stride<<6) + (p.X - g.minX)
}

func (g *Grid) bit(idx int) uint64 {
	return g.words[idx>>6] >> (uint(idx) & 63) & 1
}

func (g *Grid) setBit(idx int)   { g.words[idx>>6] |= 1 << (uint(idx) & 63) }
func (g *Grid) clearBit(idx int) { g.words[idx>>6] &^= 1 << (uint(idx) & 63) }

// inWindow reports whether p falls inside the allocated window.
func (g *Grid) inWindow(p lattice.Point) bool {
	cx, cy := p.X-g.minX, p.Y-g.minY
	return cx >= 0 && cy >= 0 && cx < g.w && cy < g.h
}

// nearBorder reports whether p is too close to the window border for the
// occupied-cell margin invariant.
func (g *Grid) nearBorder(p lattice.Point) bool {
	cx, cy := p.X-g.minX, p.Y-g.minY
	return cx < margin || cy < margin || cx >= g.w-margin || cy >= g.h-margin
}

// N returns the number of occupied cells.
func (g *Grid) N() int { return g.n }

// Edges returns e(σ): the number of lattice edges with both endpoints
// occupied, maintained incrementally.
func (g *Grid) Edges() int { return g.edges }

// Has reports whether p is occupied. Points outside the window are
// unoccupied.
func (g *Grid) Has(p lattice.Point) bool {
	if !g.inWindow(p) {
		return false
	}
	return g.bit(g.bitIndex(p)) != 0
}

// Add occupies p, growing the window if needed. It reports whether p was
// previously unoccupied.
func (g *Grid) Add(p lattice.Point) bool {
	if g.Has(p) {
		return false
	}
	if g.nearBorder(p) {
		g.grow(p)
	}
	g.edges += g.Degree(p)
	g.setBit(g.bitIndex(p))
	g.n++
	return true
}

// Remove vacates p. It reports whether p was occupied.
func (g *Grid) Remove(p lattice.Point) bool {
	if !g.Has(p) {
		return false
	}
	g.edges -= g.Degree(p)
	idx := g.bitIndex(p)
	g.clearBit(idx)
	if g.pay != nil {
		g.pay[idx] = 0
	}
	g.n--
	return true
}

// Move relocates a particle from src to dst, updating the edge count. It
// panics if src is unoccupied or dst is occupied: callers are expected to
// have validated the move.
func (g *Grid) Move(src, dst lattice.Point) {
	g.prepareMove(src, dst)
	g.edges -= g.Degree(src)
	si := g.bitIndex(src)
	g.clearBit(si)
	g.edges += g.Degree(dst)
	di := g.bitIndex(dst)
	g.setBit(di)
	if g.pay != nil {
		g.pay[di], g.pay[si] = g.pay[si], 0
	}
}

// MoveMasked relocates a particle from src to its free neighbor dst = src+d
// like Move, for a caller that has just read the pair's mask
// m = PairMask(src, d) (see MoveMask). The mask already holds both degrees:
// src's before the move is popcount(m & MaskNearL), dst's after it is
// popcount(m & MaskNearLp), so the edge count changes by their difference
// with no neighborhood re-read. It panics, and grows the window, as Move
// does; a mask not read from this pair corrupts the edge count.
func (g *Grid) MoveMasked(src, dst lattice.Point, m Mask) {
	g.prepareMove(src, dst)
	g.edges += bits.OnesCount8(uint8(m&MaskNearLp)) - bits.OnesCount8(uint8(m&MaskNearL))
	si, di := g.bitIndex(src), g.bitIndex(dst)
	g.clearBit(si)
	g.setBit(di)
	if g.pay != nil {
		g.pay[di], g.pay[si] = g.pay[si], 0
	}
}

// prepareMove panics unless src is occupied and dst free, then grows the
// window if dst would break the margin invariant.
func (g *Grid) prepareMove(src, dst lattice.Point) {
	if !g.Has(src) {
		panic(fmt.Sprintf("grid: move from unoccupied %v", src))
	}
	if g.Has(dst) {
		panic(fmt.Sprintf("grid: move to occupied %v", dst))
	}
	if g.nearBorder(dst) {
		g.grow(dst)
	}
}

// MoveUncounted relocates a particle from src to dst like Move, but leaves
// the shared edge counter untouched and returns the edge delta instead, and
// never grows the window (the caller must have checked !NearBorder(dst)).
// It exists for the sharded kMC engine: concurrent shards apply moves in
// disjoint stripe interiors, accumulate the returned deltas locally, and
// fold them back through AddEdgeCount at a synchronization barrier, so the
// parallel phase touches no shared mutable word.
func (g *Grid) MoveUncounted(src, dst lattice.Point) int {
	delta := -g.Degree(src)
	si := g.bitIndex(src)
	g.clearBit(si)
	delta += g.Degree(dst)
	di := g.bitIndex(dst)
	g.setBit(di)
	if g.pay != nil {
		g.pay[di], g.pay[si] = g.pay[si], 0
	}
	return delta
}

// AddEdgeCount folds an externally accumulated edge delta (from
// MoveUncounted calls) back into the maintained e(σ) counter.
func (g *Grid) AddEdgeCount(delta int) { g.edges += delta }

// NearBorder reports whether placing a particle at p would violate the
// margin invariant and force a window grow. Callers that cannot tolerate a
// reallocation mid-flight (concurrent shards) check it before moving.
func (g *Grid) NearBorder(p lattice.Point) bool { return g.nearBorder(p) }

// EnsureRoom grows the window, if needed, so that p satisfies the margin
// invariant. It is the explicit form of the grow Move performs implicitly,
// for callers that route their moves through MoveUncounted.
func (g *Grid) EnsureRoom(p lattice.Point) {
	if g.nearBorder(p) {
		g.grow(p)
	}
}

// Reset re-initializes the grid to occupy exactly pts, reusing the existing
// window (and its allocations) when the new bounding box fits with the
// mandatory margin; otherwise the window is reshaped around pts with the
// grid's slack, reusing word capacity when possible. Payload storage, if
// enabled, is cleared. Semantically the result is indistinguishable from
// New(pts, slack): only the window geometry (invisible to callers) may
// differ. Duplicate points are collapsed.
func (g *Grid) Reset(pts []lattice.Point) {
	min, max := lattice.Point{}, lattice.Point{}
	if len(pts) > 0 {
		min, max = pts[0], pts[0]
		for _, p := range pts[1:] {
			min, max = boundsExtend(min, max, p)
		}
	}
	clear(g.words)
	if g.pay != nil {
		clear(g.pay)
	}
	g.n, g.edges = 0, 0
	if min.X-g.minX < minSlack || min.Y-g.minY < minSlack ||
		(g.minX+g.w-1)-max.X < minSlack || (g.minY+g.h-1)-max.Y < minSlack {
		g.reshape(min, max)
	}
	for _, p := range pts {
		g.Add(p)
	}
}

// Degree returns the number of occupied neighbors of p. The point p itself
// does not count, occupied or not.
func (g *Grid) Degree(p lattice.Point) int {
	cx, cy := p.X-g.minX, p.Y-g.minY
	if cx < 1 || cy < 1 || cx >= g.w-1 || cy >= g.h-1 {
		// Border or out-of-window point: per-neighbor bounds checks.
		n := 0
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			if g.Has(p.Neighbor(d)) {
				n++
			}
		}
		return n
	}
	idx := cy*(g.stride<<6) + cx
	n := uint64(0)
	for _, delta := range g.off.Nbr {
		n += g.bit(idx + delta)
	}
	return int(n)
}

// DegreeExcluding returns the number of occupied neighbors of p, not
// counting the location excl.
func (g *Grid) DegreeExcluding(p, excl lattice.Point) int {
	n := 0
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		if q := p.Neighbor(d); q != excl && g.Has(q) {
			n++
		}
	}
	return n
}

// PairMask extracts the canonical 8-cell neighborhood mask of the move pair
// (ℓ, ℓ′ = ℓ+d). ℓ must be occupied: the margin invariant then puts all 8
// cells inside the window, so the extraction is 8 unchecked bit reads.
func (g *Grid) PairMask(l lattice.Point, d lattice.Dir) Mask {
	idx := g.bitIndex(l)
	deltas := &g.off.Mask[d]
	var m Mask
	for k := 0; k < 8; k++ {
		m |= Mask(g.bit(idx+deltas[k])) << uint(k)
	}
	return m
}

// MoveMask reads a proposed move of the occupied cell ℓ in direction d in
// one pass from ℓ's bit index: occupied reports whether the target
// ℓ′ = ℓ+d is occupied, and only when it is not, m is PairMask(ℓ, d). The
// margin invariant keeps all nine cells inside the window, so no read needs
// a window check. It is the chain's per-step read; MoveMasked applies the
// move from the same mask.
func (g *Grid) MoveMask(l lattice.Point, d lattice.Dir) (m Mask, occupied bool) {
	idx := g.bitIndex(l)
	if g.bit(idx+g.off.Nbr[d]) != 0 {
		return 0, true
	}
	ds := &g.off.Mask[d]
	m = Mask(g.bit(idx+ds[0])) | Mask(g.bit(idx+ds[1]))<<1 |
		Mask(g.bit(idx+ds[2]))<<2 | Mask(g.bit(idx+ds[3]))<<3 |
		Mask(g.bit(idx+ds[4]))<<4 | Mask(g.bit(idx+ds[5]))<<5 |
		Mask(g.bit(idx+ds[6]))<<6 | Mask(g.bit(idx+ds[7]))<<7
	return m, false
}

// Offsets holds the bit-slot offsets, relative to a cell's slot, that a
// move of the cell reads: Nbr[d] to its neighbor in direction d, Mask[d][k]
// to mask cell k of a move in direction d. They depend only on the row
// width, so a grow rebuilds them.
type Offsets struct {
	Nbr  [lattice.NumDirs]int
	Mask [lattice.NumDirs][8]int
}

// View exposes the bit window to an engine that reads occupancy in its own
// inner loop instead of through a call per read. The bit slot of p is
// p.Y·rowBits + p.X − origin, slot i is occupied when
// words[i>>6]>>(i&63)&1 is set, and off holds the slot offsets MoveMask
// reads. The results alias the grid's storage and are read-only: writing
// through them corrupts the grid, and any mutation of the grid (Add,
// Remove, Move, MoveMasked, Reset) may reallocate the window and leaves
// them stale, so a reader takes a fresh View after each.
func (g *Grid) View() (words []uint64, origin, rowBits int, off *Offsets) {
	rowBits = g.stride << 6
	return g.words, g.minY*rowBits + g.minX, rowBits, &g.off
}

// Window is the occupancy bitmap of the 5×5 axial square centered on a cell
// ℓ: bit (dy+2)·5 + (dx+2) holds the occupancy of ℓ + (dx, dy) for
// dx, dy ∈ [−2, 2]. The square is a superset of the radius-2 hex disk, so
// it contains every cell any of ℓ's six pair masks or its degree can read;
// one Window extraction answers all of them without further memory access.
type Window uint32

// winPos is the Window bit of offset (dx, dy).
func winPos(dx, dy int) uint { return uint((dy+2)*5 + (dx + 2)) }

// nbrWinPos[d] is the Window bit of neighbor u(d); maskWinPos[d][k] the
// Window bit of mask cell k for a move in direction d.
var nbrWinPos = func() (pos [lattice.NumDirs]uint) {
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		v := d.Vec()
		pos[d] = winPos(v.X, v.Y)
	}
	return pos
}()

var maskWinPos = func() (pos [lattice.NumDirs][8]uint) {
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		for k, off := range MaskOffsets(d) {
			pos[d][k] = winPos(off.X, off.Y)
		}
	}
	return pos
}()

// Window extracts the 5×5 occupancy square centered on ℓ. ℓ must be
// occupied: the margin invariant then keeps the whole square inside the
// window, and the extraction is five bounded row reads.
func (g *Grid) Window(l lattice.Point) Window {
	sb := g.stride << 6
	s := g.bitIndex(l) - 2*sb - 2
	var win Window
	for r := 0; r < 5; r++ {
		q, sh := s>>6, uint(s&63)
		w := g.words[q] >> sh
		if sh > 59 {
			w |= g.words[q+1] << (64 - sh)
		}
		win |= Window(w&31) << (5 * r)
		s += sb
	}
	return win
}

// NeighborMask returns the occupancy of the six neighbors of the center
// cell, bit d = u(d), matching lattice direction order.
func (w Window) NeighborMask() uint8 {
	var m uint8
	for d := 0; d < lattice.NumDirs; d++ {
		m |= uint8(w>>nbrWinPos[d]&1) << d
	}
	return m
}

// PairMask assembles the canonical pair mask of (center, center+u(d)) from
// the window; it equals Grid.PairMask for the same cell and direction. It is
// the reference for the table-driven Packed path.
func (w Window) PairMask(d lattice.Dir) Mask {
	pos := &maskWinPos[d]
	var m Mask
	for k := 0; k < 8; k++ {
		m |= Mask(w>>pos[k]&1) << k
	}
	return m
}

// PackedMasks carries every move classification input of one cell: the six
// pair masks in bytes 0–5 (byte d = PairMask toward direction d) and the
// 6-bit neighbor occupancy in byte 6. It is assembled from a Window with two
// table lookups, making an engine's per-particle re-classification all but
// free of bit shuffling.
type PackedMasks uint64

// packShift is the Window bit count of the low half-table; the two halves
// (13 + 12 bits) index 8192- and 4096-entry tables built at init.
const packShift = 13

var packLo = buildPackTab(0, packShift)
var packHi = buildPackTab(packShift, 25)

// buildPackTab tabulates, for every value of Window bits [from, to), the
// partial PackedMasks those bits contribute; OR-ing the low and high entries
// reconstructs the full classification of any window.
func buildPackTab(from, to uint) []PackedMasks {
	tab := make([]PackedMasks, 1<<(to-from))
	for v := range tab {
		win := Window(v) << from
		var pm PackedMasks
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			for k, pos := range maskWinPos[d] {
				if pos >= from && pos < to {
					pm |= PackedMasks(win>>pos&1) << (8*uint(d) + uint(k))
				}
			}
			if pos := nbrWinPos[d]; pos >= from && pos < to {
				pm |= PackedMasks(win>>pos&1) << (48 + uint(d))
			}
		}
		tab[v] = pm
	}
	return tab
}

// Packed assembles the cell's full move classification from the window.
func (w Window) Packed() PackedMasks {
	return packLo[w&(1<<packShift-1)] | packHi[w>>packShift]
}

// NeighborMask returns the 6-bit neighbor occupancy, bit d = u(d).
func (pm PackedMasks) NeighborMask() uint8 { return uint8(pm>>48) & (1<<lattice.NumDirs - 1) }

// PairMask returns the canonical pair mask toward direction d.
func (pm PackedMasks) PairMask(d lattice.Dir) Mask { return Mask(pm >> (8 * uint(d))) }

// CellWindow pairs an occupied cell with its 5×5 occupancy Window.
type CellWindow struct {
	P   lattice.Point
	Win Window
}

// NbrAllWindow is the canonical Window of a fully surrounded cell: only the
// six neighbor bits are set. DirtyWindows returns it for interior cells
// instead of their true window — a cell with six occupied neighbors has no
// moves, so its move classification does not depend on the rest of the
// window, and skipping the assembly keeps the hot path short.
var NbrAllWindow = func() Window {
	var w Window
	for _, pos := range nbrWinPos {
		w |= 1 << pos
	}
	return w
}()

// DirtyWindows appends to buf every occupied cell of the dirty neighborhood
// of the move pair (ℓ, ℓ′ = ℓ+d) together with that cell's Window — the
// complete input for re-classifying the cell's moves, in DirtyOffsets order.
// When ℓ sits deep enough inside the allocated window the whole answer is
// read once as an 11×11 super-window (the dirty offsets span [−3, 3]² and
// each cell's Window reaches 2 further), and each dirty cell's Window is
// then assembled from registers. Cells with
// all six neighbors occupied — most of a compressed cluster's dirty set —
// are detected bitwise on whole super-window rows and returned as
// NbrAllWindow without assembly.
func (g *Grid) DirtyWindows(l lattice.Point, d lattice.Dir, buf []CellWindow) []CellWindow {
	cx, cy := l.X-g.minX, l.Y-g.minY
	if cx < 5 || cy < 5 || cx >= g.w-5 || cy >= g.h-5 {
		for _, off := range dirtyOffsets[d] {
			if q := l.Add(off); g.Has(q) {
				buf = append(buf, CellWindow{P: q, Win: g.Window(q)})
			}
		}
		return buf
	}
	var rows [11]uint16
	sb := g.stride << 6
	s := cy*sb + cx - 5*sb - 5
	for r := 0; r < 11; r++ {
		q, sh := s>>6, uint(s&63)
		w := g.words[q] >> sh
		if sh > 53 {
			w |= g.words[q+1] << (64 - sh)
		}
		rows[r] = uint16(w & 0x7ff)
		s += sb
	}
	// intr[r] marks the cells of row r whose six neighbors — (±1, 0),
	// (0, ±1), (−1, 1), (1, −1) in axial coordinates — are all occupied.
	var intr [11]uint16
	for r := 2; r <= 8; r++ {
		a, up, dn := rows[r], rows[r+1], rows[r-1]
		intr[r] = (a >> 1) & (a << 1) & up & (up << 1) & dn & (dn >> 1)
	}
	for _, off := range dirtyOffsets[d] {
		dx, dy := off.X, off.Y
		if rows[dy+5]>>(dx+5)&1 == 0 {
			continue
		}
		if intr[dy+5]>>(dx+5)&1 == 1 {
			buf = append(buf, CellWindow{P: l.Add(off), Win: NbrAllWindow})
			continue
		}
		var win Window
		for wy := 0; wy < 5; wy++ {
			win |= Window(rows[dy+wy+3]>>(dx+3)&31) << (5 * wy)
		}
		buf = append(buf, CellWindow{P: l.Add(off), Win: win})
	}
	return buf
}

// Points returns the occupied points sorted by (Y, X), matching
// config.Config.Points order.
func (g *Grid) Points() []lattice.Point {
	out := make([]lattice.Point, 0, g.n)
	g.Each(func(p lattice.Point) {
		out = append(out, p)
	})
	return out
}

// AppendPoints appends the occupied points to buf in (Y, X) order and
// returns the extended slice. Callers pass buf[:0] of a reusable slice to
// extract the configuration without allocating (cf. Points).
func (g *Grid) AppendPoints(buf []lattice.Point) []lattice.Point {
	for cy := 0; cy < g.h; cy++ {
		row := g.words[cy*g.stride : (cy+1)*g.stride]
		for wi, w := range row {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				buf = append(buf, lattice.Point{X: g.minX + wi<<6 + b, Y: g.minY + cy})
			}
		}
	}
	return buf
}

// Triangles returns t(σ): the number of triangular lattice faces with all
// three corners occupied, matching config.Config.Triangles. Each unit face
// is counted from its unique corner p whose other two corners lie in
// directions (u0, u1) or (u1, u2); both shapes reduce to word-parallel ANDs
// of a row with its upper neighbor row.
func (g *Grid) Triangles() int {
	total := 0
	for cy := 0; cy+1 < g.h; cy++ {
		row := g.words[cy*g.stride : (cy+1)*g.stride]
		up := g.words[(cy+1)*g.stride : (cy+2)*g.stride]
		for i, w := range row {
			if w == 0 {
				continue
			}
			// Face (p, p+u0, p+u1): bits p, p+1 of this row, p of the row
			// above. Face (p, p+u1, p+u2): bit p here, bits p, p−1 above.
			right := w >> 1
			if i+1 < len(row) {
				right |= row[i+1] << 63
			}
			upLeft := up[i] << 1
			if i > 0 {
				upLeft |= up[i-1] >> 63
			}
			total += bits.OnesCount64(w & right & up[i])
			total += bits.OnesCount64(w & up[i] & upLeft)
		}
	}
	return total
}

// Each calls fn for every occupied point in (Y, X) order.
func (g *Grid) Each(fn func(lattice.Point)) {
	for cy := 0; cy < g.h; cy++ {
		row := g.words[cy*g.stride : (cy+1)*g.stride]
		for wi, w := range row {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				fn(lattice.Point{X: g.minX + wi<<6 + b, Y: g.minY + cy})
			}
		}
	}
}

// Bounds returns the inclusive bounding box of the occupied cells. It panics
// on an empty grid.
func (g *Grid) Bounds() (min, max lattice.Point) {
	if g.n == 0 {
		panic("grid: Bounds of empty grid")
	}
	first := true
	g.Each(func(p lattice.Point) {
		if first {
			min, max = p, p
			first = false
			return
		}
		min, max = boundsExtend(min, max, p)
	})
	return min, max
}

// Clone returns a deep copy of g. The boundary-walk scratch is not shared.
func (g *Grid) Clone() *Grid {
	out := *g
	out.words = append([]uint64(nil), g.words...)
	if g.pay != nil {
		out.pay = append([]uint8(nil), g.pay...)
	}
	out.arcScratch = nil
	return &out
}
