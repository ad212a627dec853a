// Package amoebot implements the geometric amoebot model of §2.1: anonymous
// constant-memory particles on the triangular lattice that move by
// expansions and contractions, activated by a fair asynchronous scheduler
// driven by Poisson clocks, with atomic activations and local-only
// communication. Algorithm A of §3.2 (the distributed translation of Markov
// chain M) is provided as the Compression protocol.
package amoebot

import (
	"fmt"
	"math/rand/v2"

	"sops/internal/config"
	"sops/internal/frame"
	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/rule"
)

// ParticleID identifies a particle within a World. IDs exist only for the
// simulator's bookkeeping; the particles themselves are anonymous and the
// protocol API exposes no identity information.
type ParticleID int

// Particle is one amoebot. A contracted particle occupies a single node
// (Head == Tail); an expanded particle occupies two adjacent nodes.
type Particle struct {
	id   ParticleID
	head lattice.Point
	tail lattice.Point
	// dir is the direction from tail to head; meaningful only while expanded.
	dir lattice.Dir
	// flag is the single bit of persistent memory Algorithm A requires
	// between the expansion and contraction activations (§3.3).
	flag bool
	// crashed particles cease activating entirely (§3.3 crash faults).
	crashed bool
	// roundStamp is World.rounds+1 once the particle has activated in the
	// current round (simulator bookkeeping, not particle memory).
	roundStamp uint64
}

// Expanded reports whether the particle currently occupies two nodes.
func (p *Particle) Expanded() bool { return p.head != p.tail }

// Head returns the node the particle last expanded into (equal to Tail when
// contracted).
func (p *Particle) Head() lattice.Point { return p.head }

// Tail returns the particle's tail node.
func (p *Particle) Tail() lattice.Point { return p.tail }

// Crashed reports whether the particle has crash-failed.
func (p *Particle) Crashed() bool { return p.crashed }

// A cell of the index is 0 when no particle occupies its node, and
// otherwise id<<cellIDShift | cellOccupied plus the flags below.
const (
	cellOccupied = 1 // some particle occupies the node
	cellHead     = 2 // the node holds the head of an expanded particle
	cellExpanded = 4 // the occupying particle is expanded (set on both its nodes)
	cellIDShift  = 3

	// maxParticles keeps every particle id representable in a cell.
	maxParticles = 1 << (31 - cellIDShift)
	// cellSlack is the free border a rebuilt window gets on every side.
	cellSlack = 8
)

// cellIndex maps lattice nodes to the particle ends occupying them through a
// dense int32 window, so occupancy and expanded-neighbor queries are array
// loads. Every occupied node keeps its six neighbors inside the window (a
// one-cell margin), so the queries of an activation, which all lie next to
// the particle's own nodes, never leave it. A node that would break the
// margin rebuilds the window around all heads and tails (the growth rule of
// kmc's pindex).
type cellIndex struct {
	minX, minY, w, h int
	nbr              [lattice.NumDirs]int // index delta to the neighbor in each direction
	cells            []int32
}

// at returns the cell index of pt, which must lie inside the window.
func (x *cellIndex) at(pt lattice.Point) int { return (pt.Y-x.minY)*x.w + pt.X - x.minX }

// interior reports whether pt and its six neighbors lie inside the window.
func (x *cellIndex) interior(pt lattice.Point) bool {
	cx, cy := pt.X-x.minX, pt.Y-x.minY
	return cx >= 1 && cy >= 1 && cx < x.w-1 && cy < x.h-1
}

// reshape sizes the window to the bounding box of every head and tail plus
// cellSlack and indexes every particle.
func (x *cellIndex) reshape(ps []Particle) {
	lo, hi := ps[0].tail, ps[0].tail
	for i := range ps {
		for _, pt := range [2]lattice.Point{ps[i].tail, ps[i].head} {
			lo.X, lo.Y = min(lo.X, pt.X), min(lo.Y, pt.Y)
			hi.X, hi.Y = max(hi.X, pt.X), max(hi.Y, pt.Y)
		}
	}
	x.minX, x.minY = lo.X-cellSlack, lo.Y-cellSlack
	x.w, x.h = hi.X-x.minX+cellSlack+1, hi.Y-x.minY+cellSlack+1
	if need := x.w * x.h; cap(x.cells) >= need {
		x.cells = x.cells[:need]
		clear(x.cells)
	} else {
		x.cells = make([]int32, need)
	}
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		v := d.Vec()
		x.nbr[d] = v.Y*x.w + v.X
	}
	for i := range ps {
		x.place(&ps[i])
	}
}

// place writes p's cells: its tail, and its head while expanded.
func (x *cellIndex) place(p *Particle) {
	c := int32(p.id)<<cellIDShift | cellOccupied
	if p.Expanded() {
		c |= cellExpanded
		x.cells[x.at(p.head)] = c | cellHead
	}
	x.cells[x.at(p.tail)] = c
}

// World is the shared lattice substrate. All mutation goes through expand
// and contract so the occupancy invariants hold at all times. World is not
// safe for concurrent use; a scheduler runs one activation at a time,
// which matches the model's atomic-action semantics.
type World struct {
	particles []Particle
	idx       cellIndex
	// tails is the bit-packed occupancy of all particle tails. It backs the
	// N*(·) neighborhood evaluations of Algorithm A (tail degrees and the
	// Property 1/2 checks) with allocation-free mask lookups; the cell index
	// remains the source of truth for particle identity and head occupancy.
	tails *grid.Grid
	// act is the one Activation every activation hands its protocol.
	act Activation

	activations uint64
	moves       uint64 // completed relocations (contract-to-head events)
	rotations   uint64 // applied payload changes (payload rules only)

	// round bookkeeping: a round completes once every non-crashed particle
	// has activated at least once since the round began (§2.1). live counts
	// non-crashed particles; activatedThis counts the particles stamped with
	// the current round. Crashes mid-round can make the round boundary
	// approximate by at most one activation per crash.
	rounds        uint64
	live          int
	expandedCount int
	activatedThis int

	mlog *frame.MoveLog // accepted-move tap for delta frame encoding; may be nil
}

// SetMoveLog attaches a move log that records every completed relocation
// and payload change (for delta frame encoding). Pass nil to detach. Only
// meaningful under a sequential scheduler: the log is not synchronized.
func (w *World) SetMoveLog(l *frame.MoveLog) { w.mlog = l }

// Tails exposes the bit-packed tail-occupancy grid for read-only
// observation; mutating it corrupts the world.
func (w *World) Tails() *grid.Grid { return w.tails }

// NewWorld places one contracted particle on every occupied node of σ0,
// which must be non-empty and connected.
func NewWorld(sigma0 *config.Config) (*World, error) {
	if sigma0.N() == 0 {
		return nil, fmt.Errorf("amoebot: empty starting configuration")
	}
	if sigma0.N() > maxParticles {
		return nil, fmt.Errorf("amoebot: %d particles exceed the limit of %d", sigma0.N(), maxParticles)
	}
	if !sigma0.Connected() {
		return nil, fmt.Errorf("amoebot: starting configuration must be connected")
	}
	w := &World{tails: sigma0.ToGrid()}
	w.act.w = w
	for i, pt := range sigma0.Points() {
		w.particles = append(w.particles, Particle{id: ParticleID(i), head: pt, tail: pt})
	}
	w.idx.reshape(w.particles)
	w.live = len(w.particles)
	return w, nil
}

// N returns the number of particles.
func (w *World) N() int { return len(w.particles) }

// Activations returns the total number of particle activations executed.
func (w *World) Activations() uint64 { return w.activations }

// Moves returns the number of completed relocations (expansions that
// contracted to the new node).
func (w *World) Moves() uint64 { return w.moves }

// Rotations returns the number of applied payload changes (zero unless the
// protocol runs a payload rule over a seeded payload).
func (w *World) Rotations() uint64 { return w.rotations }

// SeedPayload enables per-particle payload state and assigns every particle
// an independent uniform state in [0, states), drawn from a generator
// seeded with seed in particle-id order — deterministic for a fixed
// (σ0, states, seed). Payload rules require it before the first activation.
func (w *World) SeedPayload(states int, seed uint64) {
	w.tails.EnablePayload()
	rng := rand.New(rand.NewPCG(seed, 0x7f4a7c159e3779b9))
	for i := range w.particles {
		w.tails.SetPayload(w.particles[i].tail, uint8(rng.IntN(states)))
	}
}

// Energy returns H(σ) of the rule over the tail configuration (payloads
// included): the order-parameter observable for payload rules, e(σ) for
// compression.
func (w *World) Energy(ru *rule.Rule) int { return ru.Energy(w.tails) }

// Payload returns the payload state at a particle's tail.
func (w *World) Payload(id ParticleID) uint8 { return w.tails.Payload(w.particles[id].tail) }

// Rounds returns the number of completed asynchronous rounds: maximal
// periods in which every live particle activated at least once.
func (w *World) Rounds() uint64 { return w.rounds }

// Particle returns the particle with the given id.
func (w *World) Particle(id ParticleID) *Particle { return &w.particles[id] }

// AllContracted reports whether no particle is currently expanded. At such
// instants the world corresponds exactly to a state of Markov chain M, and
// the long-run distribution of configurations observed at these instants
// matches π (the raw activation-time average over-weights configurations
// with many expansion opportunities; see EXPERIMENTS.md).
func (w *World) AllContracted() bool { return w.expandedCount == 0 }

// Config returns the current configuration: the tails of all particles,
// matching the paper's convention that heads of expanded particles are not
// part of the configuration (§2.2, footnote 2).
func (w *World) Config() *config.Config {
	pts := make([]lattice.Point, 0, len(w.particles))
	for i := range w.particles {
		pts = append(pts, w.particles[i].tail)
	}
	return config.New(pts...)
}

// Crash marks a particle crash-failed; it will never activate again. A
// contracted crashed particle acts as a fixed obstacle the rest of the
// system compresses around (§3.3).
func (w *World) Crash(id ParticleID) {
	if p := &w.particles[id]; !p.crashed {
		p.crashed = true
		w.live--
	}
}

// CrashFraction crashes ⌊frac·n⌋ distinct contracted particles chosen with
// rng and returns their ids.
func (w *World) CrashFraction(rng *rand.Rand, frac float64) []ParticleID {
	k := int(frac * float64(len(w.particles)))
	perm := rng.Perm(len(w.particles))
	var out []ParticleID
	for _, i := range perm {
		if len(out) == k {
			break
		}
		p := &w.particles[i]
		if p.Expanded() || p.crashed {
			continue
		}
		w.Crash(p.id)
		out = append(out, p.id)
	}
	return out
}

// occupied reports whether any particle occupies the node (head or tail).
// pt must be a node or a neighbor of a node some particle occupies.
func (w *World) occupied(pt lattice.Point) bool {
	return w.idx.cells[w.idx.at(pt)] != 0
}

// expand moves a contracted particle's head into the unoccupied adjacent
// node in direction d.
func (w *World) expand(p *Particle, d lattice.Dir) {
	if p.Expanded() {
		panic("amoebot: expand on expanded particle")
	}
	target := p.tail.Neighbor(d)
	if w.occupied(target) {
		panic("amoebot: expand into occupied node")
	}
	p.head, p.dir = target, d
	w.expandedCount++
	if !w.idx.interior(target) {
		w.idx.reshape(w.particles)
		return
	}
	w.idx.place(p)
}

// contractToHead completes a relocation: the particle becomes contracted at
// its head node. m is the pair mask of the particle's (tail, head) pair in
// the tail grid, which grid.MoveMasked updates the edge count from.
func (w *World) contractToHead(p *Particle, m grid.Mask) {
	if !p.Expanded() {
		panic("amoebot: contract on contracted particle")
	}
	w.idx.cells[w.idx.at(p.tail)] = 0
	w.tails.MoveMasked(p.tail, p.head, m)
	if w.mlog != nil {
		w.mlog.Moved(p.tail, p.head, w.tails.Payload(p.head))
	}
	p.tail = p.head
	w.idx.place(p)
	w.moves++
	w.expandedCount--
}

// contractToTail aborts a relocation: the particle withdraws its head.
func (w *World) contractToTail(p *Particle) {
	if !p.Expanded() {
		panic("amoebot: contract on contracted particle")
	}
	w.idx.cells[w.idx.at(p.head)] = 0
	p.head = p.tail
	w.idx.place(p)
	w.expandedCount--
}

// hasExpandedNeighbor reports whether any node adjacent to pt holds a head
// or tail of an expanded particle other than excl. pt must be occupied.
func (w *World) hasExpandedNeighbor(pt lattice.Point, excl ParticleID) bool {
	return expandedAround(w.idx.cells, w.idx.at(pt), &w.idx.nbr, excl)
}

// expandedAround is hasExpandedNeighbor over a cell index's cells and
// neighbor deltas, for the node at cell i. It is small enough to inline
// into runPlain.
func expandedAround(cells []int32, i int, nbr *[lattice.NumDirs]int, excl ParticleID) bool {
	for _, delta := range nbr {
		if c := cells[i+delta]; c&cellExpanded != 0 && ParticleID(c>>cellIDShift) != excl {
			return true
		}
	}
	return false
}

// activate runs one atomic activation of particle id under the given
// protocol, with rng as the particle's private randomness source.
func (w *World) activate(id ParticleID, proto Protocol, rng *rand.Rand) {
	p := &w.particles[id]
	if p.crashed {
		return
	}
	w.activations++
	w.act.p, w.act.rng = p, rng
	proto.Activate(&w.act)
	w.act.p, w.act.rng = nil, nil
	w.stampRound(p)
}

// stampRound does the round bookkeeping of an activation of p: the first
// activation of a particle in a round stamps it, and the round completes
// once every live particle is stamped.
func (w *World) stampRound(p *Particle) {
	if p.roundStamp != w.rounds+1 {
		p.roundStamp = w.rounds + 1
		w.activatedThis++
	}
	if w.activatedThis >= w.live {
		w.rounds++
		w.activatedThis = 0
	}
}

// CheckInvariants verifies structural soundness of the world: every cell
// entry matches its particle, no node is doubly occupied, expanded particles
// occupy adjacent nodes, every occupied node keeps the window margin. It is
// called from tests; the cost is O(n) plus the window size.
func (w *World) CheckInvariants() error {
	nodes, expanded := 0, 0
	for i := range w.particles {
		p := &w.particles[i]
		c := int32(p.id)<<cellIDShift | cellOccupied
		if p.Expanded() {
			if p.tail.Neighbor(p.dir) != p.head {
				return fmt.Errorf("particle %d head %v is not its tail %v's neighbor in direction %v", p.id, p.head, p.tail, p.dir)
			}
			if !w.idx.interior(p.head) {
				return fmt.Errorf("particle %d head %v outside the cell window margin", p.id, p.head)
			}
			c |= cellExpanded
			if w.idx.cells[w.idx.at(p.head)] != c|cellHead {
				return fmt.Errorf("particle %d head cell mismatch at %v", p.id, p.head)
			}
			nodes++
			expanded++
		}
		if !w.idx.interior(p.tail) {
			return fmt.Errorf("particle %d tail %v outside the cell window margin", p.id, p.tail)
		}
		// A node claimed by two particles holds only one of them, so the
		// other fails here.
		if w.idx.cells[w.idx.at(p.tail)] != c {
			return fmt.Errorf("particle %d tail cell mismatch at %v", p.id, p.tail)
		}
		nodes++
	}
	used := 0
	for _, c := range w.idx.cells {
		if c != 0 {
			used++
		}
	}
	if used != nodes {
		return fmt.Errorf("cell index has %d entries, particles occupy %d nodes", used, nodes)
	}
	if expanded != w.expandedCount {
		return fmt.Errorf("%d particles expanded, counter says %d", expanded, w.expandedCount)
	}
	if w.tails.N() != len(w.particles) {
		return fmt.Errorf("tail grid holds %d cells, want %d", w.tails.N(), len(w.particles))
	}
	for i := range w.particles {
		if p := &w.particles[i]; !w.tails.Has(p.tail) {
			return fmt.Errorf("tail grid missing particle %d tail %v", p.id, p.tail)
		}
	}
	return nil
}
