// Package lattice implements the infinite triangular lattice G∆ underlying
// the geometric amoebot model, using axial coordinates.
//
// A lattice point (X, Y) corresponds to the Euclidean position
// X·a + Y·b with basis vectors a = (1, 0) and b = (1/2, √3/2), which are 60°
// apart. Every vertex has exactly six neighbors; the six unit directions in
// counterclockwise order are
//
//	u0 = ( 1,  0)   u1 = ( 0,  1)   u2 = (-1,  1)
//	u3 = (-1,  0)   u4 = ( 0, -1)   u5 = ( 1, -1)
//
// satisfying u[k] + u[k+3] = 0 (opposites) and u[k] + u[k+2] = u[k+1]
// (adjacent directions span a unit triangle). These two identities drive all
// local geometry in the simulator: the two lattice points adjacent to both
// endpoints of an edge in direction d are the rotations d±60°.
package lattice

import "fmt"

// Point is a vertex of the triangular lattice in axial coordinates. The
// JSON tags are its wire form in run results and forage schedules.
type Point struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// Dir is one of the six lattice directions, 0 through 5, in counterclockwise
// order starting from the +X axis.
type Dir int

// NumDirs is the number of lattice directions at every vertex.
const NumDirs = 6

// The six unit vectors indexed by Dir.
var dirVec = [NumDirs]Point{
	{1, 0}, {0, 1}, {-1, 1}, {-1, 0}, {0, -1}, {1, -1},
}

// Vec returns the unit vector for direction d.
func (d Dir) Vec() Point { return dirVec[d.norm()] }

func (d Dir) norm() Dir {
	m := d % NumDirs
	if m < 0 {
		m += NumDirs
	}
	return m
}

// CCW returns the direction rotated k steps (60° each) counterclockwise.
func (d Dir) CCW(k int) Dir { return (d + Dir(k)).norm() }

// CW returns the direction rotated k steps (60° each) clockwise.
func (d Dir) CW(k int) Dir { return (d - Dir(k)).norm() }

// Opposite returns the direction rotated 180°.
func (d Dir) Opposite() Dir { return d.CCW(3) }

func (d Dir) String() string {
	names := [NumDirs]string{"E", "NE", "NW", "W", "SW", "SE"}
	return names[d.norm()]
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Neighbor returns the adjacent lattice point in direction d.
func (p Point) Neighbor(d Dir) Point { return p.Add(d.Vec()) }

// Neighbors returns the six adjacent lattice points in CCW direction order.
func (p Point) Neighbors() [NumDirs]Point {
	var out [NumDirs]Point
	for d := Dir(0); d < NumDirs; d++ {
		out[d] = p.Neighbor(d)
	}
	return out
}

// DirTo returns the direction from p to adjacent point q. The second return
// value is false if q is not one of p's six neighbors.
func (p Point) DirTo(q Point) (Dir, bool) {
	diff := q.Sub(p)
	for d := Dir(0); d < NumDirs; d++ {
		if dirVec[d] == diff {
			return d, true
		}
	}
	return 0, false
}

// Adjacent reports whether p and q are connected by a lattice edge.
func (p Point) Adjacent(q Point) bool {
	_, ok := p.DirTo(q)
	return ok
}

// CommonNeighbors returns the lattice points adjacent to both p and its
// neighbor in direction d. On the triangular lattice there are always exactly
// two: the rotations of d by ±60°.
func (p Point) CommonNeighbors(d Dir) [2]Point {
	return [2]Point{p.Neighbor(d.CCW(1)), p.Neighbor(d.CW(1))}
}

// Dist returns the lattice (hex/graph) distance between p and q: the minimum
// number of edges on a path between them.
func (p Point) Dist(q Point) int {
	dx := p.X - q.X
	dy := p.Y - q.Y
	// In axial coordinates with our basis the hex distance is
	// (|dx| + |dy| + |dx+dy|) / 2.
	return (abs(dx) + abs(dy) + abs(dx+dy)) / 2
}

// Euclidean returns the Cartesian embedding of p (unit edge length).
func (p Point) Euclidean() (x, y float64) {
	const sqrt3over2 = 0.8660254037844386
	return float64(p.X) + float64(p.Y)/2, float64(p.Y) * sqrt3over2
}

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Less orders points lexicographically by (Y, X); the minimum of a set under
// Less is its lowest, then leftmost, vertex. Used for canonicalization.
func (p Point) Less(q Point) bool {
	if p.Y != q.Y {
		return p.Y < q.Y
	}
	return p.X < q.X
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TriangleUp and TriangleDown identify the two triangular faces incident to
// the edge leaving p in direction d=0 style reasoning; more generally, the
// face spanned by p, p+u[d], p+u[d+1] is the "left" face of the directed edge
// (p, d). FaceLeft returns its three corners.
func FaceLeft(p Point, d Dir) [3]Point {
	return [3]Point{p, p.Neighbor(d), p.Neighbor(d.CCW(1))}
}

// Ring returns the lattice points at exactly hex distance r from center, in
// counterclockwise order starting from center + r·u0. Ring(center, 0) returns
// just the center.
func Ring(center Point, r int) []Point {
	if r == 0 {
		return []Point{center}
	}
	out := make([]Point, 0, 6*r)
	p := center.Add(Point{r * dirVec[0].X, r * dirVec[0].Y})
	// Walk the six sides of the hexagonal ring. Starting at angle 0 and
	// moving counterclockwise, the first side heads in direction u2.
	for side := 0; side < NumDirs; side++ {
		d := Dir(side + 2).norm()
		for step := 0; step < r; step++ {
			out = append(out, p)
			p = p.Neighbor(d)
		}
	}
	return out
}

// Disk returns all lattice points at hex distance ≤ r from center, ordered by
// increasing ring.
func Disk(center Point, r int) []Point {
	out := make([]Point, 0, 1+3*r*(r+1))
	for k := 0; k <= r; k++ {
		out = append(out, Ring(center, k)...)
	}
	return out
}

// Spiral returns the first n points of the hexagonal spiral around center:
// center itself, then ring 1, then ring 2, and so on. Each ring is emitted
// starting one step past its corner at r·u0 and wrapping around to finish on
// that corner, so every point added after the ring's first touches at least
// two already-emitted points (mid-edge points touch three). This ordering
// makes every prefix a minimum-perimeter, maximum-edge configuration
// (Harary–Harborth), which metrics.PMin relies on.
func Spiral(center Point, n int) []Point {
	out := make([]Point, 0, n)
	for r := 0; len(out) < n; r++ {
		ring := Ring(center, r)
		for i := range ring {
			if len(out) == n {
				break
			}
			out = append(out, ring[(i+1)%len(ring)])
		}
	}
	return out
}
