package amoebot

import (
	"math"
	"math/rand/v2"
)

// PoissonScheduler activates particles according to independent Poisson
// clocks (§3.2): each particle draws exponentially distributed delays
// between its activations, so regardless of history every live particle is
// equally likely to activate next (with equal rates), faithfully emulating
// the uniform selection of Markov chain M without global coordination.
// The simulation is sequential and deterministic given the seed.
type PoissonScheduler struct {
	w      *World
	proto  Protocol
	rng    *rand.Rand
	rates  []float64
	clocks clockTree
	now    float64
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
		rng:   rand.New(rand.NewPCG(seed, 0x5bd1e995)),
		rates: make([]float64, w.N()),
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
	for i := uint64(0); i < k; i++ {
		if !s.StepActivation() {
			return
		}
	}
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
