package amoebot

import (
	"math/rand/v2"
	"sync"
)

// PoissonScheduler activates particles according to independent Poisson
// clocks (§3.2): each particle draws exponentially distributed delays
// between its activations, so regardless of history every live particle is
// equally likely to activate next (with equal rates), faithfully emulating
// the uniform selection of Markov chain M without global coordination.
// The simulation is sequential and deterministic given the seed.
type PoissonScheduler struct {
	w     *World
	proto Protocol
	rng   *rand.Rand
	rates []float64
	queue eventHeap
	now   float64
}

type event struct {
	t  float64
	id ParticleID
}

// eventHeap is a binary min-heap of clock events ordered by time. The root
// is the next event due; it is rescheduled in place, so an activation costs
// one sift-down. Event times are continuous draws, distinct almost surely,
// so the order events leave the heap depends only on their times.
type eventHeap []event

// down moves h[i] toward the leaves until no child is due earlier.
func (h eventHeap) down(i int) {
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].t < h[c].t {
			c = r
		}
		if !(h[c].t < e.t) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// removeRoot drops the root event by moving the last event into its place.
func (h *eventHeap) removeRoot() {
	q := *h
	last := len(q) - 1
	q[0] = q[last]
	*h = q[:last]
	if last > 0 {
		h.down(0)
	}
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
	s.queue = make(eventHeap, 0, w.N())
	for i := range w.particles {
		id := w.particles[i].id
		s.queue = append(s.queue, event{t: s.rng.ExpFloat64() / s.rates[id], id: id})
	}
	for i := len(s.queue)/2 - 1; i >= 0; i-- {
		s.queue.down(i)
	}
	return s
}

// Time returns the current simulated (continuous) time.
func (s *PoissonScheduler) Time() float64 { return s.now }

// StepActivation activates the next particle due. It reports false when no
// live particle remains to schedule.
func (s *PoissonScheduler) StepActivation() bool {
	for len(s.queue) > 0 {
		id := s.queue[0].id
		s.now = s.queue[0].t
		if s.w.particles[id].crashed {
			// Crashed clocks leave the queue permanently.
			s.queue.removeRoot()
			continue
		}
		s.w.activate(id, s.proto, s.rng)
		s.queue[0].t = s.now + s.rng.ExpFloat64()/s.rates[id]
		s.queue.down(0)
		return true
	}
	return false
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

// RunConcurrent drives the world with `workers` goroutines, each activating
// uniformly random particles from a private RNG until it has performed
// perWorker activations. Activations are serialized by a mutex, realizing
// the model's assumption that concurrent executions are equivalent to a
// sequential ordering of atomic actions (§2.1). The interleaving — and
// therefore the trajectory — is nondeterministic; invariants and stationary
// statistics are not.
func RunConcurrent(w *World, proto Protocol, seed uint64, workers int, perWorker uint64) {
	if workers < 1 {
		workers = 1
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(stream uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, stream))
			for i := uint64(0); i < perWorker; i++ {
				id := ParticleID(rng.IntN(w.N()))
				mu.Lock()
				if !w.particles[id].crashed {
					w.activate(id, proto, rng)
				}
				mu.Unlock()
			}
		}(uint64(wk) + 1)
	}
	wg.Wait()
}
