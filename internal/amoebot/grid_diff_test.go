package amoebot

import (
	"testing"

	"sops/internal/config"
	"sops/internal/lattice"
	"sops/internal/move"
)

// checkedProtocol wraps Compression and, at every activation of an expanded
// particle, cross-checks move.Classify of the tail-grid mask against an
// oracle over the cell index before delegating.
type checkedProtocol struct {
	inner Protocol
	t     *testing.T
}

func (cp *checkedProtocol) Activate(a *Activation) {
	if m, ok := a.MoveMask(); ok {
		cl := move.Classify(m)
		if got, want := cl.Property1() || cl.Property2(), movePropertiesOracle(a); got != want {
			cp.t.Fatalf("Property 1 or 2: mask=%v oracle=%v at tail %v head %v",
				got, want, a.p.tail, a.p.head)
		}
		if got, want := cl.Degree(), degreeOracle(a, a.p.tail); got != want {
			cp.t.Fatalf("e = |N*(tail)|: mask=%d oracle=%d at %v", got, want, a.p.tail)
		}
		if got, want := cl.TargetDegree(), degreeOracle(a, a.p.head); got != want {
			cp.t.Fatalf("e′ = |N*(head)|: mask=%d oracle=%d at %v", got, want, a.p.head)
		}
	}
	cp.inner.Activate(a)
}

// tailView adapts the world to move.Occupancy through the cell index:
// occupancy by tails only (heads of expanded particles are invisible),
// excluding one particle — the N*(·) sets of Algorithm A's expanded branch.
type tailView struct {
	w    *World
	excl ParticleID
}

func (v tailView) Has(pt lattice.Point) bool {
	c := v.w.idx.cells[v.w.idx.at(pt)]
	return c&(cellOccupied|cellHead) == cellOccupied && ParticleID(c>>cellIDShift) != v.excl
}

// movePropertiesOracle evaluates Property 1 or 2 of the expanded particle's
// (tail, head) pair with the map-style predicates of internal/move.
func movePropertiesOracle(a *Activation) bool {
	d, ok := a.p.tail.DirTo(a.p.head)
	if !ok {
		return false
	}
	v := tailView{w: a.w, excl: a.p.id}
	return move.Property1(v, a.p.tail, d) || move.Property2(v, a.p.tail, d)
}

// degreeOracle counts the tails of other particles adjacent to pt.
func degreeOracle(a *Activation, pt lattice.Point) int {
	v := tailView{w: a.w, excl: a.p.id}
	n := 0
	for _, q := range pt.Neighbors() {
		if v.Has(q) {
			n++
		}
	}
	return n
}

// TestWorldGridAgreesWithOracle runs the full distributed stack with the
// cross-checking protocol: every expanded activation compares the class of
// its tail-grid mask with the cell-index oracle, and world invariants
// (including the tail grid) are verified periodically.
func TestWorldGridAgreesWithOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		w, err := NewWorld(config.Line(40))
		if err != nil {
			t.Fatal(err)
		}
		s := NewPoissonScheduler(w, &checkedProtocol{inner: MustNewCompression(4), t: t}, seed)
		for batch := 0; batch < 40; batch++ {
			s.RunActivations(2000)
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
		}
		if !w.Config().Connected() {
			t.Fatalf("seed %d: final configuration disconnected", seed)
		}
	}
}
