package config

import (
	"sort"

	"sops/internal/lattice"
)

// Arc is an interface arc: an occupied vertex V together with a direction D
// such that V's neighbor in direction D is unoccupied. The multiset of arcs
// encodes the entire boundary structure of a configuration.
type Arc struct {
	V lattice.Point
	D lattice.Dir
}

// succArc is the boundary successor permutation on interface arcs.
//
// From arc (v, d), rotate one step counterclockwise to t = d+60°. If v's
// neighbor in direction t is unoccupied we pivot in place to arc (v, t) and
// traverse no boundary edge. Otherwise we step along the configuration edge
// to v' = v+t; the unoccupied cell v+d is adjacent to v' in direction d−60°,
// giving the next arc (v', d−60°). The permutation's cycles are exactly the
// boundaries of §2.2 — one cycle per adjacent unoccupied component — and the
// number of "step" transitions in a cycle is that boundary's length, with a
// cut edge contributing one step in each direction (counted twice, as the
// paper requires).
func (c *Config) succArc(a Arc) (next Arc, edge bool) {
	t := a.D.CCW(1)
	q := a.V.Neighbor(t)
	if !c.Has(q) {
		return Arc{a.V, t}, false
	}
	return Arc{q, a.D.CW(1)}, true
}

// Boundary describes one boundary of a configuration: a minimal closed walk
// separating the particles from one connected unoccupied region.
type Boundary struct {
	// Length is the number of configuration edges on the closed boundary
	// walk. An edge traversed twice (a cut edge) counts twice.
	Length int
	// Arcs is the number of interface arcs on this boundary (particle→empty
	// adjacencies facing this unoccupied region).
	Arcs int
	// Start is a representative arc on the boundary.
	Start Arc
	// External reports whether the adjacent unoccupied region is the
	// infinite outer region (as opposed to a hole).
	External bool
}

// Boundaries computes all boundaries of the configuration by decomposing the
// interface arcs into successor cycles. For a connected non-empty
// configuration exactly one boundary is external; every other boundary
// encloses a hole.
func (c *Config) Boundaries() []Boundary {
	if len(c.occ) == 0 {
		return nil
	}
	// Deterministic iteration order for reproducible output.
	pts := c.Points()
	visited := make(map[Arc]bool)
	var out []Boundary

	// The external boundary is identified by a maximal arc: take the
	// highest-then-rightmost particle; its +Y neighbor is unoccupied and
	// provably lies in the infinite region.
	top := pts[len(pts)-1]
	externalArc := Arc{top, 1} // u1 = (0,1): increases Y, so top+u1 is empty.

	for _, p := range pts {
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			start := Arc{p, d}
			if c.Has(p.Neighbor(d)) || visited[start] {
				continue
			}
			b := Boundary{Start: start}
			a := start
			for {
				visited[a] = true
				b.Arcs++
				next, edge := c.succArc(a)
				if edge {
					b.Length++
				}
				a = next
				if a == start {
					break
				}
				if a == externalArc {
					b.External = true
				}
			}
			if start == externalArc {
				b.External = true
			}
			out = append(out, b)
		}
	}
	// Sort: external boundary first, then by decreasing length for
	// deterministic output.
	sort.Slice(out, func(i, j int) bool {
		if out[i].External != out[j].External {
			return out[i].External
		}
		return out[i].Length > out[j].Length
	})
	return out
}

// Perimeter returns p(σ): the total length of all boundaries (external and
// holes), with cut edges counted twice, per §2.2. A single particle has
// perimeter 0; two adjacent particles have perimeter 2.
func (c *Config) Perimeter() int {
	total := 0
	for _, b := range c.Boundaries() {
		total += b.Length
	}
	return total
}

// HoleCount returns the number of holes: maximal finite unoccupied regions
// enclosed by the configuration.
func (c *Config) HoleCount() int {
	n := 0
	for _, b := range c.Boundaries() {
		if !b.External {
			n++
		}
	}
	return n
}

// HasHoles reports whether the configuration encloses any unoccupied region.
func (c *Config) HasHoles() bool { return c.HoleCount() > 0 }

// HoleCells returns every unoccupied lattice vertex enclosed by the
// configuration, computed by flood fill from outside the bounding box. This
// is an independent algorithm from Boundaries and is used to cross-check it.
func (c *Config) HoleCells() []lattice.Point {
	if len(c.occ) == 0 {
		return nil
	}
	min, max := c.Bounds()
	min.X--
	min.Y--
	max.X++
	max.Y++
	inBox := func(p lattice.Point) bool {
		return p.X >= min.X && p.X <= max.X && p.Y >= min.Y && p.Y <= max.Y
	}
	// Flood fill the unoccupied region from a box corner. The expanded box
	// frame is entirely unoccupied and connected (E/W/N/S moves exist among
	// the six lattice directions), so the fill reaches every unoccupied cell
	// connected to the outside.
	start := min
	reach := map[lattice.Point]struct{}{start: {}}
	stack := []lattice.Point{start}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			q := p.Neighbor(d)
			if !inBox(q) || c.Has(q) {
				continue
			}
			if _, ok := reach[q]; ok {
				continue
			}
			reach[q] = struct{}{}
			stack = append(stack, q)
		}
	}
	var holes []lattice.Point
	for x := min.X; x <= max.X; x++ {
		for y := min.Y; y <= max.Y; y++ {
			p := lattice.Point{X: x, Y: y}
			if c.Has(p) {
				continue
			}
			if _, ok := reach[p]; !ok {
				holes = append(holes, p)
			}
		}
	}
	sort.Slice(holes, func(i, j int) bool { return holes[i].Less(holes[j]) })
	return holes
}
