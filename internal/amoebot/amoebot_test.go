package amoebot

import (
	"math"
	"math/rand/v2"
	"testing"

	"sops/internal/config"
	"sops/internal/enumerate"
	"sops/internal/lattice"
	"sops/internal/metrics"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(config.New()); err == nil {
		t.Error("empty configuration must be rejected")
	}
	disc := config.New(lattice.Point{}, lattice.Point{X: 9})
	if _, err := NewWorld(disc); err == nil {
		t.Error("disconnected configuration must be rejected")
	}
	w, err := NewWorld(config.Line(5))
	if err != nil {
		t.Fatalf("valid world rejected: %v", err)
	}
	if w.N() != 5 {
		t.Errorf("N = %d, want 5", w.N())
	}
	if err := w.CheckInvariants(); err != nil {
		t.Errorf("fresh world invariants: %v", err)
	}
}

func TestNewCompressionValidation(t *testing.T) {
	for _, bad := range []float64{0, -2, math.NaN(), math.Inf(1)} {
		if _, err := NewCompression(bad); err == nil {
			t.Errorf("λ=%v must be rejected", bad)
		}
	}
	c, err := NewCompression(4)
	if err != nil || c.Lambda() != 4 {
		t.Errorf("valid λ rejected: %v", err)
	}
}

// TestExpandContractPrimitives exercises the world mutation primitives
// through a scripted protocol.
func TestExpandContractPrimitives(t *testing.T) {
	w, _ := NewWorld(config.Line(2))
	p := w.Particle(0)
	if p.Expanded() {
		t.Fatal("fresh particle should be contracted")
	}
	script := protocolFunc(func(a *Activation) {
		if !a.Expanded() {
			// Try expanding onto the other particle first: must fail.
			d, _ := a.w.particles[0].tail.DirTo(a.w.particles[1].tail)
			if a.Expand(d) {
				t.Error("expansion into occupied node must fail")
			}
			if !a.Expand(d.Opposite()) {
				t.Error("expansion into free node must succeed")
			}
			return
		}
		a.ContractToHead()
	})
	rng := rand.New(rand.NewPCG(1, 1))
	w.activate(0, script, rng)
	if !p.Expanded() {
		t.Fatal("particle should be expanded after first activation")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatalf("invariants while expanded: %v", err)
	}
	w.activate(0, script, rng)
	if p.Expanded() {
		t.Fatal("particle should have contracted")
	}
	if w.Moves() != 1 {
		t.Errorf("moves = %d, want 1", w.Moves())
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatalf("invariants after contraction: %v", err)
	}
}

type protocolFunc func(*Activation)

func (f protocolFunc) Activate(a *Activation) { f(a) }

// TestWorldInvariantsUnderCompression runs Algorithm A and checks structural
// invariants, tail-configuration connectivity, and hole preservation along
// the way.
func TestWorldInvariantsUnderCompression(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 4; trial++ {
		start := config.RandomConnected(rng, 20)
		w, err := NewWorld(start)
		if err != nil {
			t.Fatal(err)
		}
		s := NewPoissonScheduler(w, MustNewCompression(4), uint64(trial+1))
		wasHoleFree := false
		for batch := 0; batch < 30; batch++ {
			s.RunActivations(500)
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			cfg := w.Config()
			if !cfg.Connected() {
				t.Fatalf("trial %d: tail configuration disconnected", trial)
			}
			holes := cfg.HasHoles()
			if wasHoleFree && holes {
				t.Fatalf("trial %d: hole reformed", trial)
			}
			if !holes {
				wasHoleFree = true
			}
		}
	}
}

// TestNoStrandedExpansion: after any prefix of a run, the number of expanded
// particles can always drain to zero (each expanded particle contracts on
// its next activation), so the A↔M configuration correspondence of §3.2
// holds. We check that forcing every particle to activate twice leaves all
// particles contracted.
func TestNoStrandedExpansion(t *testing.T) {
	w, _ := NewWorld(config.Line(12))
	proto := MustNewCompression(3)
	s := NewUniformScheduler(w, proto, 77)
	s.RunActivations(5000)
	// Drain: activate exactly the currently expanded particles; each one
	// contracts (to head or tail) on its next activation, so one pass over
	// the expanded set suffices.
	rng := rand.New(rand.NewPCG(9, 9))
	for id := 0; id < w.N(); id++ {
		if w.Particle(ParticleID(id)).Expanded() {
			w.activate(ParticleID(id), proto, rng)
		}
	}
	if !w.AllContracted() {
		t.Fatal("world not fully contracted after draining expanded particles")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithmAMatchesChainM is the §3.2 equivalence in distribution:
// observed at instants when every particle is contracted — the moments the
// world corresponds to a state of M — the long-run edge-count histogram of
// Algorithm A under the fully asynchronous Poisson scheduler must match the
// exact stationary distribution of M. (The unconditioned activation-time
// average is provably different: it over-weights configurations with many
// expansion opportunities; TestAsyncDwellBias pins that down.)
func TestAlgorithmAMatchesChainM(t *testing.T) {
	const n = 4
	const lambda = 3
	exact := enumerate.ExactStationary(n, lambda)
	exactByEdges := map[int]float64{}
	for i, c := range exact.States {
		exactByEdges[c.Edges()] += exact.Prob[i]
	}
	w, _ := NewWorld(config.Line(n))
	s := NewPoissonScheduler(w, MustNewCompression(lambda), 321)
	s.RunActivations(30000) // burn-in
	empByEdges := map[int]float64{}
	samples := 0
	for i := 0; i < 1200000; i++ {
		s.StepActivation()
		if i%7 == 0 && w.AllContracted() {
			empByEdges[w.Config().Edges()]++
			samples++
		}
	}
	for e, pExact := range exactByEdges {
		pEmp := empByEdges[e] / float64(samples)
		if math.Abs(pEmp-pExact) > 0.02 {
			t.Errorf("e=%d: empirical %.4f vs exact %.4f", e, pEmp, pExact)
		}
	}
}

// TestAsyncDwellBias documents the sampling subtlety above: the raw
// activation-time average of Algorithm A must OVER-represent low-edge
// (expansion-rich) configurations relative to π. If this test ever fails,
// the dwell-bias note in EXPERIMENTS.md needs revisiting.
func TestAsyncDwellBias(t *testing.T) {
	const n = 4
	const lambda = 3
	exact := enumerate.ExactStationary(n, lambda)
	var exactLowE float64 // probability of the minimum edge count (trees)
	for i, c := range exact.States {
		if c.Edges() == n-1 {
			exactLowE += exact.Prob[i]
		}
	}
	w, _ := NewWorld(config.Line(n))
	s := NewPoissonScheduler(w, MustNewCompression(lambda), 654)
	s.RunActivations(30000)
	var lowE, samples float64
	for i := 0; i < 600000; i++ {
		s.StepActivation()
		if i%7 == 0 {
			if w.Config().Edges() == n-1 {
				lowE++
			}
			samples++
		}
	}
	if lowE/samples < exactLowE+0.02 {
		t.Errorf("expected dwell bias toward tree configurations: raw %.4f vs exact %.4f",
			lowE/samples, exactLowE)
	}
}

// TestHeterogeneousClocksSameStationary: §3.2 claims unequal Poisson rates
// do not change the stationary distribution. Run with rates spread over
// [0.5, 2] and compare against exact π.
func TestHeterogeneousClocksSameStationary(t *testing.T) {
	if testing.Short() {
		t.Skip("long stationary-sampling run; skipped under -short")
	}
	const n = 4
	const lambda = 3
	exact := enumerate.ExactStationary(n, lambda)
	exactByEdges := map[int]float64{}
	for i, c := range exact.States {
		exactByEdges[c.Edges()] += exact.Prob[i]
	}
	w, _ := NewWorld(config.Line(n))
	rates := map[ParticleID]float64{}
	for i := 0; i < n; i++ {
		rates[ParticleID(i)] = 0.5 + 1.5*float64(i)/float64(n-1)
	}
	s := NewPoissonScheduler(w, MustNewCompression(lambda), 99, WithRates(rates))
	s.RunActivations(30000)
	empByEdges := map[int]float64{}
	samples := 0
	for i := 0; i < 1200000; i++ {
		s.StepActivation()
		if i%7 == 0 && w.AllContracted() {
			empByEdges[w.Config().Edges()]++
			samples++
		}
	}
	for e, pExact := range exactByEdges {
		pEmp := empByEdges[e] / float64(samples)
		if math.Abs(pEmp-pExact) > 0.02 {
			t.Errorf("e=%d: empirical %.4f vs exact %.4f under heterogeneous clocks", e, pEmp, pExact)
		}
	}
}

// TestCompressionUnderA: Algorithm A compresses a line at high bias.
func TestCompressionUnderA(t *testing.T) {
	n := 30
	w, _ := NewWorld(config.Line(n))
	s := NewPoissonScheduler(w, MustNewCompression(6), 13)
	s.RunActivations(900000)
	p := w.Config().Perimeter()
	if p >= metrics.PMax(n)*2/3 {
		t.Errorf("perimeter %d did not compress below 2/3 of pmax %d", p, metrics.PMax(n))
	}
}

// TestPoissonFairness: over a long run every particle activates, and with
// equal rates the activation counts concentrate around the mean.
func TestPoissonFairness(t *testing.T) {
	n := 20
	w, _ := NewWorld(config.Line(n))
	counts := make([]int, n)
	proto := protocolFunc(func(a *Activation) {})
	s := NewPoissonScheduler(w, protocolFunc(func(a *Activation) {
		counts[a.p.id]++
	}), 7)
	_ = proto
	total := 40000
	s.RunActivations(uint64(total))
	mean := float64(total) / float64(n)
	for id, c := range counts {
		if math.Abs(float64(c)-mean) > mean/2 {
			t.Errorf("particle %d activated %d times, mean %v — unfair", id, c, mean)
		}
	}
	if w.Rounds() == 0 {
		t.Error("rounds never advanced")
	}
}

// TestRoundsVsActivations: with n particles a round needs at least n
// activations, so rounds ≤ activations/n.
func TestRoundsVsActivations(t *testing.T) {
	n := 15
	w, _ := NewWorld(config.Line(n))
	s := NewPoissonScheduler(w, MustNewCompression(4), 3)
	s.RunActivations(30000)
	if w.Rounds() > w.Activations()/uint64(n) {
		t.Errorf("rounds %d exceed activations/n = %d", w.Rounds(), w.Activations()/uint64(n))
	}
	if w.Rounds() == 0 {
		t.Error("no rounds completed in 30000 activations of 15 particles")
	}
}

// TestCrashFaultCompression: §3.3 — with 10% of particles crashed, the rest
// still compress around the fixed points, and crashed particles never move.
func TestCrashFaultCompression(t *testing.T) {
	if testing.Short() {
		t.Skip("long stochastic run; skipped under -short")
	}
	n := 40
	w, _ := NewWorld(config.Line(n))
	s := NewPoissonScheduler(w, MustNewCompression(6), 11)
	// Let the system leave the adversarial straight line first; crashes in
	// a perfect line pin it open and only delay (not prevent) compression.
	s.RunActivations(400000)
	rng := rand.New(rand.NewPCG(2, 4))
	crashed := w.CrashFraction(rng, 0.1)
	if len(crashed) != 4 {
		t.Fatalf("crashed %d particles, want 4", len(crashed))
	}
	positions := map[ParticleID]lattice.Point{}
	for _, id := range crashed {
		positions[id] = w.Particle(id).Tail()
	}
	s.RunActivations(800000)
	for _, id := range crashed {
		if w.Particle(id).Tail() != positions[id] {
			t.Errorf("crashed particle %d moved", id)
		}
	}
	cfg := w.Config()
	if !cfg.Connected() {
		t.Fatal("configuration disconnected despite crash-tolerant design")
	}
	if p := cfg.Perimeter(); p >= metrics.PMax(n)*3/4 {
		t.Errorf("perimeter %d: no compression progress around crashed particles", p)
	}
}

// TestAllCrashedSchedulerStops: schedulers must terminate when no live
// particle remains.
func TestAllCrashedSchedulerStops(t *testing.T) {
	w, _ := NewWorld(config.Line(3))
	for i := 0; i < 3; i++ {
		w.Crash(ParticleID(i))
	}
	s := NewPoissonScheduler(w, MustNewCompression(4), 1)
	if s.StepActivation() {
		t.Error("Poisson scheduler should report exhaustion")
	}
	u := NewUniformScheduler(w, MustNewCompression(4), 1)
	if u.StepActivation() {
		t.Error("uniform scheduler should report exhaustion")
	}
	if w.Activations() != 0 {
		t.Error("crashed particles must not activate")
	}
}

// TestConcurrentRunMatchesInvariants: the mutex-serialized concurrent runner
// must preserve all invariants and make progress.
func TestConcurrentRunMatchesInvariants(t *testing.T) {
	n := 30
	w, _ := NewWorld(config.Line(n))
	RunConcurrent(w, MustNewCompression(4), 17, 4, 50000)
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	cfg := w.Config()
	if cfg.N() != n {
		t.Fatalf("particle count changed: %d", cfg.N())
	}
	if !cfg.Connected() {
		t.Fatal("disconnected after concurrent run")
	}
	if w.Activations() != 4*50000 {
		t.Errorf("activations = %d, want %d", w.Activations(), 4*50000)
	}
	if w.Moves() == 0 {
		t.Error("no moves at all in a long concurrent run")
	}
}

// TestUniformSchedulerDeterminism: same seed, same trajectory.
func TestUniformSchedulerDeterminism(t *testing.T) {
	run := func() string {
		w, _ := NewWorld(config.Line(15))
		s := NewUniformScheduler(w, MustNewCompression(4), 42)
		s.RunActivations(20000)
		return w.Config().Key()
	}
	if run() != run() {
		t.Error("uniform scheduler with fixed seed must be deterministic")
	}
	runP := func() string {
		w, _ := NewWorld(config.Line(15))
		s := NewPoissonScheduler(w, MustNewCompression(4), 42)
		s.RunActivations(20000)
		return w.Config().Key()
	}
	if runP() != runP() {
		t.Error("Poisson scheduler with fixed seed must be deterministic")
	}
}

// TestFlagPreventsNeighborhoodRaces: directly exercise the flag protocol: a
// particle that expands next to an already-expanded particle sets its flag
// to false and must contract back to its tail on its next activation, even
// if the Metropolis filter would accept.
func TestFlagPreventsNeighborhoodRaces(t *testing.T) {
	// Two adjacent particles in a line of 4; force particle 1 to expand,
	// then particle 2 to expand adjacent to it.
	w, _ := NewWorld(config.Line(4))
	proto := MustNewCompression(1000) // huge λ: filter essentially always accepts gains
	rng := rand.New(rand.NewPCG(31, 7))

	forceExpand := func(id ParticleID, d lattice.Dir) bool {
		p := w.particles[id]
		if p.Expanded() || w.occupied(p.tail.Neighbor(d)) {
			return false
		}
		ok := false
		w.activate(id, protocolFunc(func(a *Activation) {
			if a.Expand(d) {
				ok = true
				if !a.HasExpandedNeighborAtTail() && !a.HasExpandedNeighborAtHead() {
					a.SetFlag(true)
				} else {
					a.SetFlag(false)
				}
			}
		}), rng)
		return ok
	}
	// Particle 0 at (0,0): expand up (0,1)-ward. Pick any free direction.
	var d0 lattice.Dir
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		if !w.occupied(w.particles[0].tail.Neighbor(d)) {
			d0 = d
			break
		}
	}
	if !forceExpand(0, d0) {
		t.Fatal("setup: particle 0 could not expand")
	}
	if !w.particles[0].flag {
		t.Fatal("setup: particle 0 should have flag=true (no expanded neighbors)")
	}
	// Particle 1 is adjacent to particle 0: expanding now must set flag=false.
	var d1 lattice.Dir
	found := false
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		if !w.occupied(w.particles[1].tail.Neighbor(d)) {
			d1, found = d, true
			break
		}
	}
	if !found {
		t.Fatal("setup: particle 1 has no free neighbor")
	}
	if !forceExpand(1, d1) {
		t.Fatal("setup: particle 1 could not expand")
	}
	if w.particles[1].flag {
		t.Fatal("particle 1 expanded next to an expanded particle: flag must be false")
	}
	tail1 := w.particles[1].tail
	// Activate particle 1 under the real protocol: it must contract back.
	w.activate(1, proto, rng)
	if w.particles[1].Expanded() {
		t.Fatal("particle 1 should have contracted")
	}
	if w.particles[1].tail != tail1 {
		t.Error("particle 1 must contract back to its tail (flag=false)")
	}
}

// TestCompressionIsObliviousBetweenMoves: the only persistent state is the
// flag bit; after a completed move the flag's value must not affect future
// behavior (it is rewritten on every expansion). We simply verify the flag
// is freshly assigned on each expansion.
func TestFlagRewrittenOnExpansion(t *testing.T) {
	w, _ := NewWorld(config.Line(6))
	proto := MustNewCompression(4)
	s := NewUniformScheduler(w, proto, 55)
	// Poison all flags.
	for i := range w.particles {
		w.particles[i].flag = true
	}
	s.RunActivations(10000)
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	cfg := w.Config()
	if !cfg.Connected() {
		t.Fatal("disconnected: stale flags corrupted the run")
	}
}

// TestRunRounds: the round-driven runner advances the round counter by
// exactly the requested amount.
func TestRunRounds(t *testing.T) {
	w, _ := NewWorld(config.Line(12))
	s := NewPoissonScheduler(w, MustNewCompression(4), 6)
	s.RunRounds(5)
	if got := w.Rounds(); got != 5 {
		t.Errorf("rounds = %d, want 5", got)
	}
	if w.Activations() < 5*12 {
		t.Errorf("activations %d below the 5-round minimum %d", w.Activations(), 5*12)
	}
	before := w.Rounds()
	s.RunRounds(3)
	if w.Rounds() != before+3 {
		t.Errorf("rounds advanced to %d, want %d", w.Rounds(), before+3)
	}
	if s.Time() <= 0 {
		t.Error("simulated time should advance")
	}
}
