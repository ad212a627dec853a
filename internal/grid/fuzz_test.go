package grid

import (
	"sort"
	"testing"

	"sops/internal/lattice"
)

// FuzzGridOps drives a Grid through arbitrary op sequences — add, remove,
// move, clone, payload writes — decoded from the fuzz input, against a
// map-backed oracle, checking after every step the invariants the engines
// lean on: occupancy, incremental edge count, payload carriage, the
// occupied-cell margin (every mask/degree read stays in-window), and the
// PairMask/Window/Packed extractors against their reference definitions.
//
// Ops decode in 4-byte chunks (op, x, y, aux); coordinates live in
// [-16, 16] so sequences cross the initial window and force grows, and op 6
// jumps far away to force a big reallocation. A move whose aux has bit 7
// set goes through the chain's path instead of Move: the fused MoveMask
// read (checked against the oracle's occupancy and mask) and, when the
// target is free, MoveMasked fed that mask.
func FuzzGridOps(f *testing.F) {
	f.Add([]byte{})
	// Build a blob, carve it, then walk it around.
	f.Add([]byte{
		0, 16, 16, 0, 0, 17, 16, 0, 0, 16, 17, 0, 0, 17, 17, 0,
		3, 0, 0, 0, 4, 0, 0, 9, 2, 1, 0, 0, 1, 17, 16, 0,
	})
	// Clone mid-sequence, then mutate the clone.
	f.Add([]byte{
		0, 16, 16, 0, 0, 18, 16, 0, 5, 0, 0, 0, 0, 20, 20, 0,
		2, 0, 1, 1, 1, 16, 16, 0,
	})
	// March outward: repeated moves in one direction force regrows.
	f.Add([]byte{
		0, 16, 16, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0,
		2, 0, 0, 0, 6, 30, 2, 0, 0, 2, 30, 0,
	})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512] // keep per-input work bounded
		}
		g := New(nil, 3)
		occ := map[lattice.Point]bool{}
		pay := map[lattice.Point]uint8{}
		payloadOn := false

		occupied := func() []lattice.Point {
			out := make([]lattice.Point, 0, len(occ))
			for p := range occ {
				out = append(out, p)
			}
			sort.Slice(out, func(i, j int) bool {
				if out[i].Y != out[j].Y {
					return out[i].Y < out[j].Y
				}
				return out[i].X < out[j].X
			})
			return out
		}

		for off := 0; off+4 <= len(ops); off += 4 {
			op, bx, by, aux := ops[off]%7, ops[off+1], ops[off+2], ops[off+3]
			p := lattice.Point{X: int(bx%33) - 16, Y: int(by%33) - 16}
			switch op {
			case 0: // Add
				if len(occ) >= 48 && !occ[p] {
					continue // bound oracle size
				}
				want := !occ[p]
				if got := g.Add(p); got != want {
					t.Fatalf("Add(%v) = %v, oracle %v", p, got, want)
				}
				occ[p] = true
			case 1: // Remove
				want := occ[p]
				if got := g.Remove(p); got != want {
					t.Fatalf("Remove(%v) = %v, oracle %v", p, got, want)
				}
				delete(occ, p)
				delete(pay, p)
			case 2: // Move an occupied cell to a free neighbor
				list := occupied()
				if len(list) == 0 {
					continue
				}
				src := list[int(aux)%len(list)]
				d := lattice.Dir(by % 6)
				dst := src.Neighbor(d)
				if aux&0x80 != 0 {
					m, occupied := g.MoveMask(src, d)
					if occupied != occ[dst] {
						t.Fatalf("MoveMask(%v, %v) occupied = %v, oracle %v", src, d, occupied, occ[dst])
					}
					if occupied {
						continue
					}
					if want := oracleMask(occ, src, d); m != want {
						t.Fatalf("MoveMask(%v, %v) = %08b, reference %08b", src, d, m, want)
					}
					g.MoveMasked(src, dst, m)
				} else {
					if occ[dst] {
						continue
					}
					g.Move(src, dst)
				}
				delete(occ, src)
				occ[dst] = true
				if v, ok := pay[src]; ok {
					delete(pay, src)
					pay[dst] = v
				}
			case 3: // EnablePayload (idempotent)
				g.EnablePayload()
				payloadOn = true
			case 4: // SetPayload on an occupied cell
				if !payloadOn {
					continue
				}
				list := occupied()
				if len(list) == 0 {
					continue
				}
				q := list[int(aux)%len(list)]
				g.SetPayload(q, aux)
				pay[q] = aux
			case 5: // Clone and continue on the copy; the original must
				// not see later mutations (checked implicitly: the clone
				// and the oracle stay in lockstep).
				g = g.Clone()
			case 6: // Far add: force a large window grow
				far := lattice.Point{X: int(bx) - 128, Y: int(by) - 128}
				if len(occ) >= 48 && !occ[far] {
					continue
				}
				want := !occ[far]
				if got := g.Add(far); got != want {
					t.Fatalf("Add(%v) = %v, oracle %v", far, got, want)
				}
				occ[far] = true
			}
			checkLight(t, g, occ)
		}
		checkFull(t, g, occ, pay, payloadOn)
	})
}

// checkLight holds after every op: counts and the margin invariant.
func checkLight(t *testing.T, g *Grid, occ map[lattice.Point]bool) {
	t.Helper()
	if g.N() != len(occ) {
		t.Fatalf("N = %d, oracle %d", g.N(), len(occ))
	}
	edges := 0
	for p := range occ {
		for d := lattice.Dir(0); d < 3; d++ {
			if occ[p.Neighbor(d)] {
				edges++
			}
		}
	}
	if g.Edges() != edges {
		t.Fatalf("Edges = %d, oracle %d", g.Edges(), edges)
	}
	for p := range occ {
		if g.nearBorder(p) {
			t.Fatalf("margin invariant violated: occupied %v near border (window %dx%d at %d,%d)",
				p, g.w, g.h, g.minX, g.minY)
		}
	}
}

// checkFull holds at sequence end: per-cell occupancy and payload, degrees,
// and every mask extractor against its reference definition.
func checkFull(t *testing.T, g *Grid, occ map[lattice.Point]bool, pay map[lattice.Point]uint8, payloadOn bool) {
	t.Helper()
	// Occupancy and payloads across the occupied set and a halo around it.
	probe := map[lattice.Point]bool{{X: 0, Y: 0}: true, {X: 99, Y: -99}: true}
	for p := range occ {
		probe[p] = true
		for _, off := range lattice.Disk(lattice.Point{}, 2) {
			probe[p.Add(off)] = true
		}
	}
	for p := range probe {
		if g.Has(p) != occ[p] {
			t.Fatalf("Has(%v) = %v, oracle %v", p, g.Has(p), occ[p])
		}
		if payloadOn {
			if got, want := g.Payload(p), pay[p]; got != want {
				t.Fatalf("Payload(%v) = %d, oracle %d", p, got, want)
			}
		}
	}
	pts := g.Points()
	if len(pts) != len(occ) {
		t.Fatalf("Points() has %d entries, oracle %d", len(pts), len(occ))
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.Y > b.Y || (a.Y == b.Y && a.X >= b.X) {
			t.Fatalf("Points() not (Y, X)-sorted: %v before %v", a, b)
		}
	}
	for _, p := range pts {
		deg := 0
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			if occ[p.Neighbor(d)] {
				deg++
			}
		}
		if g.Degree(p) != deg {
			t.Fatalf("Degree(%v) = %d, oracle %d", p, g.Degree(p), deg)
		}
		win := g.Window(p)
		packed := win.Packed()
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			want := oracleMask(occ, p, d)
			if got := g.PairMask(p, d); got != want {
				t.Fatalf("PairMask(%v, %v) = %08b, reference %08b", p, d, got, want)
			}
			if got := win.PairMask(d); got != want {
				t.Fatalf("Window.PairMask(%v, %v) = %08b, reference %08b", p, d, got, want)
			}
			if got := packed.PairMask(d); got != want {
				t.Fatalf("Packed.PairMask(%v, %v) = %08b, reference %08b", p, d, got, want)
			}
			m, occupied := g.MoveMask(p, d)
			if occupied != occ[p.Neighbor(d)] || (!occupied && m != want) {
				t.Fatalf("MoveMask(%v, %v) = %08b, %v; reference %08b, %v", p, d, m, occupied, want, occ[p.Neighbor(d)])
			}
		}
		var nbr uint8
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			if occ[p.Neighbor(d)] {
				nbr |= 1 << uint(d)
			}
		}
		if got := win.NeighborMask(); got != nbr {
			t.Fatalf("NeighborMask(%v) = %06b, reference %06b", p, got, nbr)
		}
	}
}

// oracleMask is the reference PairMask of (p, p+d) read from the oracle.
func oracleMask(occ map[lattice.Point]bool, p lattice.Point, d lattice.Dir) Mask {
	var m Mask
	for k, off := range MaskOffsets(d) {
		if occ[p.Add(off)] {
			m |= 1 << uint(k)
		}
	}
	return m
}
