package amoebot

import (
	"math"
	"math/bits"
	"math/rand/v2"

	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/rule"
	"sops/internal/seq"
)

// PoissonScheduler activates particles according to independent Poisson
// clocks (§3.2): each particle draws exponentially distributed delays
// between its activations, so regardless of history every live particle is
// equally likely to activate next (with equal rates), faithfully emulating
// the uniform selection of Markov chain M without global coordination.
// The simulation is sequential and deterministic given the seed.
//
// A *Metropolis protocol over a rule.Rule.Plain rule (stateless, fixed-λ,
// six-slot: compression and every rule.CompressionVariant) runs in
// runPlain, one call-free loop. Every other protocol (payload and biased
// rules, Mux, Stubborn, custom ones) activates through World.activate and
// Protocol.Activate. The protocol picks the path; no option does. Both
// paths draw from one PCG stream in the same order: an activation's slot
// or coin, then the particle's next delay.
type PoissonScheduler struct {
	w     *World
	proto Protocol
	pcg   seq.PCG
	// rng is rand.New(&pcg): the delays' ExpFloat64 and the general path's
	// draws, from the stream runPlain draws from directly.
	rng    *rand.Rand
	rates  []float64
	clocks clockTree
	now    float64
	// plain, set for a plain protocol only, selects runPlain and prices
	// its moves: the rule's ladder.
	plain *rule.Ladder
}

// removed is the key of a clock that has left the tree. It is above the
// bits of every time the scheduler can reach, +Inf included, so a live
// clock at +Inf still fires once every finite clock has left.
const removed = math.MaxUint64

// clockTree is a loser (tournament) tree over the particles' clocks. Leaf
// i holds particle i's next activation time as math.Float64bits, which
// orders the scheduler's times (never negative, never NaN) exactly as the
// floats; leaves past n are padding, removed from the start. node[j],
// 0 < j < len(key), holds the loser of match j, whose players are the
// winners of its children 2j and 2j+1 (position len(key)+i is leaf i), and
// node[0] holds the overall winner. Changing the winner's key replays the
// fixed ⌈log₂ n⌉ matches on its leaf-to-root path. Exact ties, which
// continuous draws make vanishingly rare, go to the lower leaf when the
// tree is built and to the clock coming up the path when it is replayed.
type clockTree struct {
	key  []uint64
	node []int32
}

// newClockTree returns a tree of n clocks; fill key[:n], then call build.
func newClockTree(n int) clockTree {
	size := 1
	for size < n {
		size *= 2
	}
	t := clockTree{key: make([]uint64, size), node: make([]int32, size)}
	for i := n; i < size; i++ {
		t.key[i] = removed
	}
	return t
}

// build plays every match once; call it after filling the leaf keys.
func (t *clockTree) build() { t.node[0] = t.play(1) }

// play fills the losers of the subtree at position j and returns its winner.
func (t *clockTree) play(j int) int32 {
	if j >= len(t.key) {
		return int32(j - len(t.key))
	}
	a, b := t.play(2*j), t.play(2*j+1)
	if t.key[b] < t.key[a] {
		a, b = b, a
	}
	t.node[j] = b
	return a
}

// winner returns the next clock due and its key (removed when none is live).
func (t *clockTree) winner() (int32, uint64) {
	w := t.node[0]
	return w, t.key[w]
}

// replace sets the winner's key and replays its matches. Each match
// compiles to a compare feeding two conditional moves, so it costs no
// branch misprediction however the times fall.
func (t *clockTree) replace(k uint64) {
	key, node := t.key, t.node
	w := node[0]
	key[w] = k
	for j := (int(w) + len(key)) >> 1; j > 0; j >>= 1 {
		l := node[j]
		lk := key[l]
		nw, nk := w, k
		if lk < k {
			nw, nk = l, lk
		}
		node[j] = w ^ l ^ nw
		w, k = nw, nk
	}
	node[0] = w
}

// SchedulerOption customizes a PoissonScheduler.
type SchedulerOption func(*PoissonScheduler)

// WithRates sets per-particle Poisson rates (mean activations per unit
// time). The paper notes heterogeneous constant rates leave the stationary
// distribution unchanged (§3.2); this option exists to demonstrate that.
// Missing entries default to 1.
func WithRates(rates map[ParticleID]float64) SchedulerOption {
	return func(s *PoissonScheduler) {
		for id, r := range rates {
			if int(id) < len(s.rates) && r > 0 {
				s.rates[id] = r
			}
		}
	}
}

// NewPoissonScheduler creates a scheduler driving world w under proto.
func NewPoissonScheduler(w *World, proto Protocol, seed uint64, opts ...SchedulerOption) *PoissonScheduler {
	s := &PoissonScheduler{
		w:     w,
		proto: proto,
		pcg:   seq.PCG{Hi: seed, Lo: 0x5bd1e995},
		rates: make([]float64, w.N()),
	}
	s.rng = rand.New(&s.pcg)
	if m, ok := proto.(*Metropolis); ok && m.ru.Plain() {
		s.plain = m.ld
	}
	for i := range s.rates {
		s.rates[i] = 1
	}
	for _, o := range opts {
		o(s)
	}
	s.clocks = newClockTree(w.N())
	for i := range w.particles {
		id := w.particles[i].id
		s.clocks.key[id] = math.Float64bits(s.rng.ExpFloat64() / s.rates[id])
	}
	s.clocks.build()
	return s
}

// Time returns the current simulated (continuous) time.
func (s *PoissonScheduler) Time() float64 { return s.now }

// StepActivation activates the next particle due. It reports false when no
// live particle remains to schedule.
func (s *PoissonScheduler) StepActivation() bool {
	if s.plain != nil {
		return s.runPlain(1) == 1
	}
	return s.step()
}

// step is StepActivation on the general path: the protocol activates
// through World.activate.
func (s *PoissonScheduler) step() bool {
	for {
		id, k := s.clocks.winner()
		if k == removed {
			return false
		}
		s.now = math.Float64frombits(k)
		if s.w.particles[id].crashed {
			// Crashed clocks leave the tree permanently.
			s.clocks.replace(removed)
			continue
		}
		s.w.activate(ParticleID(id), s.proto, s.rng)
		s.clocks.replace(math.Float64bits(s.now + s.rng.ExpFloat64()/s.rates[id]))
		return true
	}
}

// RunActivations executes k activations (fewer if all particles crash).
func (s *PoissonScheduler) RunActivations(k uint64) {
	if s.plain != nil {
		s.runPlain(k)
		return
	}
	for i := uint64(0); i < k; i++ {
		if !s.step() {
			return
		}
	}
}

// runPlain runs up to k activations of a plain protocol (see
// PoissonScheduler) and returns how many it ran: fewer only once every
// particle has crashed. It is step with Metropolis.Activate inlined, and it
// calls out only to expand, to contract, to draw the delay and to replay
// the clock tree. A price of 0 is exactly a failed guard, since
// ValidateLambda keeps every λ^ΔH positive, so the decision is
// flag && q < price.Move(m). An expansion may rebuild the cell index's
// window and a relocation the tail grid's, so the loop reloads those
// locals after each. TestPlainMatchesGeneral pins it to the general path.
func (s *PoissonScheduler) runPlain(k uint64) uint64 {
	// (2⁶⁴ − 6) mod 6: the Lemire rejection bound of the slot draw.
	const slotThresh = (1<<64 - lattice.NumDirs) % lattice.NumDirs
	w := s.w
	hi, lo := s.pcg.Hi, s.pcg.Lo
	key, node := s.clocks.key, s.clocks.node
	ps, rates, price := w.particles, s.rates, s.plain
	cells, nbr, minX, minY, cw := w.idx.cells, &w.idx.nbr, w.idx.minX, w.idx.minY, w.idx.w
	words, origin, rowBits, off := w.tails.View()
	now := s.now
	var done uint64
	for done < k {
		id := node[0]
		t := key[id]
		if t == removed {
			break
		}
		now = math.Float64frombits(t)
		p := &ps[id]
		if p.crashed {
			// Crashed clocks leave the tree permanently.
			s.clocks.replace(removed)
			continue
		}
		w.activations++
		if p.head == p.tail {
			// Steps 1–7: draw a direction; expand if its node is free and
			// no neighbor of the tail is expanded, and set the flag when
			// no neighbor of the head is either. The tail scan need not
			// run again after the expansion: only this particle changed.
			hi, lo = seq.PCGNext(hi, lo)
			d, low := bits.Mul64(seq.DXSM(hi, lo), lattice.NumDirs)
			for low < slotThresh {
				hi, lo = seq.PCGNext(hi, lo)
				d, low = bits.Mul64(seq.DXSM(hi, lo), lattice.NumDirs)
			}
			at := (p.tail.Y-minY)*cw + p.tail.X - minX
			if cells[at+nbr[d]] == 0 && !expandedAround(cells, at, nbr, ParticleID(id)) {
				w.expand(p, lattice.Dir(d))
				cells, minX, minY, cw = w.idx.cells, w.idx.minX, w.idx.minY, w.idx.w
				p.flag = !expandedAround(cells, (p.head.Y-minY)*cw+p.head.X-minX, nbr, ParticleID(id))
			}
		} else {
			// Steps 8–13: relocate if the flag is set and the Metropolis
			// filter passes, else withdraw the head.
			hi, lo = seq.PCGNext(hi, lo)
			q := seq.ToUnit(seq.DXSM(hi, lo))
			at := p.tail.Y*rowBits + p.tail.X - origin
			ds := &off.Mask[p.dir]
			m := grid.Mask(words[(at+ds[0])>>6]>>(uint(at+ds[0])&63)&1 |
				words[(at+ds[1])>>6]>>(uint(at+ds[1])&63)&1<<1 |
				words[(at+ds[2])>>6]>>(uint(at+ds[2])&63)&1<<2 |
				words[(at+ds[3])>>6]>>(uint(at+ds[3])&63)&1<<3 |
				words[(at+ds[4])>>6]>>(uint(at+ds[4])&63)&1<<4 |
				words[(at+ds[5])>>6]>>(uint(at+ds[5])&63)&1<<5 |
				words[(at+ds[6])>>6]>>(uint(at+ds[6])&63)&1<<6 |
				words[(at+ds[7])>>6]>>(uint(at+ds[7])&63)&1<<7)
			if p.flag && q < price.Move(m) {
				w.contractToHead(p, m)
				words, origin, rowBits, off = w.tails.View()
			} else {
				w.contractToTail(p)
			}
		}
		w.stampRound(p)
		s.pcg.Hi, s.pcg.Lo = hi, lo
		delay := s.rng.ExpFloat64()
		hi, lo = s.pcg.Hi, s.pcg.Lo
		s.clocks.replace(math.Float64bits(now + delay/rates[id]))
		done++
	}
	s.now = now
	return done
}

// RunRounds executes activations until r more asynchronous rounds complete.
func (s *PoissonScheduler) RunRounds(r uint64) {
	target := s.w.Rounds() + r
	for s.w.Rounds() < target {
		if !s.StepActivation() {
			return
		}
	}
}

// UniformScheduler activates a uniformly random live particle each step:
// the activation distribution the Poisson clocks realize, offered directly
// for cheap simulation. Deterministic given the seed.
type UniformScheduler struct {
	w     *World
	proto Protocol
	rng   *rand.Rand
}

// NewUniformScheduler creates a uniform random-sequential scheduler.
func NewUniformScheduler(w *World, proto Protocol, seed uint64) *UniformScheduler {
	return &UniformScheduler{w: w, proto: proto, rng: rand.New(rand.NewPCG(seed, 0xcafef00d))}
}

// StepActivation activates one uniformly random particle (crashed particles
// consume no activations). It reports false if every particle has crashed.
func (s *UniformScheduler) StepActivation() bool {
	for attempts := 0; attempts < 64*s.w.N(); attempts++ {
		id := ParticleID(s.rng.IntN(s.w.N()))
		if s.w.particles[id].crashed {
			continue
		}
		s.w.activate(id, s.proto, s.rng)
		return true
	}
	return false
}

// RunActivations executes k activations.
func (s *UniformScheduler) RunActivations(k uint64) {
	for i := uint64(0); i < k; i++ {
		if !s.StepActivation() {
			return
		}
	}
}
