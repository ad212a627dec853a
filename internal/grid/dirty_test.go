package grid

import (
	"math/rand/v2"
	"testing"

	"sops/internal/lattice"
)

// TestDirtyOffsetsDefinition: the dirty neighborhood of (ℓ, ℓ′) is exactly
// the union of the radius-2 disks around the two endpoints minus ℓ, and it
// covers every mask cell and both move endpoints of every (cell, direction)
// pair whose mask can reference ℓ or ℓ′.
func TestDirtyOffsetsDefinition(t *testing.T) {
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		l := lattice.Point{}
		lp := l.Neighbor(d)
		want := map[lattice.Point]bool{}
		for _, p := range lattice.Disk(l, 2) {
			want[p] = true
		}
		for _, p := range lattice.Disk(lp, 2) {
			want[p] = true
		}
		delete(want, l)
		got := map[lattice.Point]bool{}
		for _, off := range DirtyOffsets(d) {
			if got[off] {
				t.Fatalf("dir %v: duplicate offset %v", d, off)
			}
			got[off] = true
		}
		if len(got) != len(want) {
			t.Fatalf("dir %v: %d offsets, want %d", d, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("dir %v: missing offset %v", d, p)
			}
		}

		// Completeness: any cell j whose PairMask (some direction dd) or
		// move endpoints touch l or lp must lie in the dirty set or be l.
		for _, j := range lattice.Disk(l, 4) {
			touches := false
			for dd := lattice.Dir(0); dd < lattice.NumDirs; dd++ {
				for _, off := range MaskOffsets(dd) {
					if c := j.Add(off); c == l || c == lp {
						touches = true
					}
				}
				if c := j.Neighbor(dd); c == l || c == lp {
					touches = true
				}
			}
			if touches && j != l && !got[j] {
				t.Fatalf("dir %v: cell %v can reference the pair but is not dirty", d, j)
			}
		}
	}
}

// TestWindowMatchesPairMask: the one-pass 5×5 window extraction must agree
// with the per-direction PairMask extraction and the degree count on random
// configurations, including cells sitting right on the margin after grows.
func TestWindowMatchesPairMask(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 13))
	for trial := 0; trial < 300; trial++ {
		var pts []lattice.Point
		p := lattice.Point{}
		for i := 0; i < 30; i++ {
			pts = append(pts, p)
			p = p.Neighbor(lattice.Dir(rng.IntN(lattice.NumDirs)))
		}
		g := New(pts, minSlack)
		for _, l := range g.Points() {
			win := g.Window(l)
			if deg := bitsOn(uint32(win.NeighborMask())); deg != g.Degree(l) {
				t.Fatalf("trial %d cell %v: window degree %d, Grid.Degree %d", trial, l, deg, g.Degree(l))
			}
			for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
				if got, want := win.PairMask(d), g.PairMask(l, d); got != want {
					t.Fatalf("trial %d cell %v dir %v: window mask %08b, PairMask %08b", trial, l, d, got, want)
				}
				if has := win.NeighborMask()>>d&1 == 1; has != g.Has(l.Neighbor(d)) {
					t.Fatalf("trial %d cell %v dir %v: neighbor bit %v, Has %v", trial, l, d, has, !has)
				}
			}
		}
	}
}

func bitsOn(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// TestDirtyWindowsMatchesComposition: the fused super-window path must
// return exactly the occupied cells at DirtyOffsets, each paired with its
// Window, on both the interior fast path and the near-border fallback.
// Packed() must also agree with the loop-assembled masks for every
// returned window.
func TestDirtyWindowsMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	for trial := 0; trial < 300; trial++ {
		var pts []lattice.Point
		p := lattice.Point{}
		for i := 0; i < 35; i++ {
			pts = append(pts, p)
			p = p.Neighbor(lattice.Dir(rng.IntN(lattice.NumDirs)))
		}
		g := New(pts, minSlack)
		l := pts[rng.IntN(len(pts))]
		d := lattice.Dir(rng.IntN(lattice.NumDirs))

		got := g.DirtyWindows(l, d, nil)
		var wantCells []lattice.Point
		for _, off := range DirtyOffsets(d) {
			if q := l.Add(off); g.Has(q) {
				wantCells = append(wantCells, q)
			}
		}
		if len(got) != len(wantCells) {
			t.Fatalf("trial %d: %d cells, want %d", trial, len(got), len(wantCells))
		}
		seen := map[lattice.Point]Window{}
		for _, cw := range got {
			seen[cw.P] = cw.Win
		}
		for _, q := range wantCells {
			win, ok := seen[q]
			if !ok {
				t.Fatalf("trial %d: cell %v missing from DirtyWindows", trial, q)
			}
			if want := g.Window(q); win != want {
				// Interior cells may come back as the canonical
				// all-neighbors-occupied sentinel instead of the true window.
				if win != NbrAllWindow || g.Degree(q) != 6 {
					t.Fatalf("trial %d: cell %v window %025b, want %025b", trial, q, win, want)
				}
			}
			pm := win.Packed()
			if pm.NeighborMask() != win.NeighborMask() {
				t.Fatalf("trial %d: packed neighbor mask mismatch at %v", trial, q)
			}
			for dd := lattice.Dir(0); dd < lattice.NumDirs; dd++ {
				if pm.PairMask(dd) != win.PairMask(dd) {
					t.Fatalf("trial %d: packed pair mask mismatch at %v dir %v", trial, q, dd)
				}
			}
		}
	}
}
