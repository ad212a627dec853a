package runner

import (
	"fmt"
	"math/rand/v2"

	"sops/internal/amoebot"
	"sops/internal/chain"
	"sops/internal/config"
	"sops/internal/frame"
	"sops/internal/grid"
	"sops/internal/kmc"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/rule"
	"sops/internal/viz"
)

// Arena is the execution context of runs, and the only run path: the
// package Compress is a single-use Arena. A worker that executes many
// (options, seed) tasks back to back keeps one Arena: compiled rules are
// cached, deterministic start shapes are generated once per (shape, n), and
// the chain/kMC engines, grid, index buffers, move log and the Result
// itself are recycled via the engines' Reset, so steady-state chain and kMC
// task execution performs no cross-task allocation (asserted by
// TestArenaCompressZeroAlloc). Amoebot and stripe-sharded runs build their
// engine per task.
//
// The returned Result — including its Points and Snapshots slices — is owned
// by the arena and valid only until the next Compress call; callers that
// retain results must copy them. Arena results leave Rendering empty: the
// ASCII drawing exists for interactive use, and the package Compress adds
// it. An Arena is not safe for concurrent use; use one per worker goroutine.
type Arena struct {
	rules  map[arenaRuleKey]*rule.Rule
	starts map[arenaStartKey][]lattice.Point

	chain *chain.Chain
	kmc   *kmc.Chain

	res    Result
	ptsBuf []lattice.Point
	snap   snapshotter
}

type arenaRuleKey struct {
	name   string
	lambda float64
	states int
	// schedule is the bias-schedule identity (ForageSpec.cacheKey): two
	// forage rules at equal (name, λ, states) but different food layouts
	// compile to different rules and must not share a cache slot.
	schedule string
}

type arenaStartKey struct {
	shape StartShape
	n     int
}

// NewArena creates an empty arena.
func NewArena() *Arena {
	return &Arena{
		rules:  make(map[arenaRuleKey]*rule.Rule),
		starts: make(map[arenaStartKey][]lattice.Point),
	}
}

// Compress runs one task — any engine, any option, any hook — reusing the
// arena's rules, start shapes, engines and buffers.
func (a *Arena) Compress(opts Options) (*Result, error) {
	engine, err := opts.engine()
	if err != nil {
		return nil, err
	}
	ru, err := a.ruleFor(opts)
	if err != nil {
		return nil, err
	}
	if err := opts.validate(engine); err != nil {
		return nil, err
	}
	pts, err := a.startPoints(opts)
	if err != nil {
		return nil, err
	}
	a.res = Result{
		N: opts.N, Lambda: opts.Lambda, Rule: ru.Name(),
		Points:    a.res.Points[:0],
		Snapshots: a.res.Snapshots[:0],
	}
	sim, err := a.newSimulation(engine, opts, pts, ru)
	if err != nil {
		return nil, err
	}
	a.snap.reset(opts, ru, sim)
	if err := a.run(sim, opts); err != nil {
		return nil, err
	}
	a.fill(sim)
	return &a.res, nil
}

// simulation is what Compress drives and measures: the sequential engines
// directly, Algorithm A through amoebotRun. Steps counts iterations or
// activations; Grid is the live configuration.
type simulation interface {
	Run(n uint64) uint64
	Steps() uint64
	Accepted() uint64
	Rotations() uint64
	Perimeter() int
	Edges() int
	Energy() int
	HoleFree() bool
	SetMoveLog(*frame.MoveLog)
	Grid() *grid.Grid
}

// newSimulation readies the task's engine over the starting points.
func (a *Arena) newSimulation(engine string, opts Options, pts []lattice.Point, ru *rule.Rule) (simulation, error) {
	if engine == EngineAmoebot {
		return a.amoebot(opts, pts, ru)
	}
	return a.engineFor(engine, pts, ru, opts.Seed)
}

// run advances sim by the task's budget in SnapshotEvery intervals, taking
// a snapshot after each and polling Interrupt before each.
func (a *Arena) run(sim simulation, opts Options) error {
	total := opts.iterations()
	every := opts.SnapshotEvery
	if every == 0 || every >= total {
		every = total
	}
	for done := uint64(0); done < total; {
		if opts.Interrupt != nil && opts.Interrupt() {
			return ErrInterrupted
		}
		k := min(every, total-done)
		sim.Run(k)
		done += k
		if every < total {
			a.res.Snapshots = append(a.res.Snapshots, a.snap.take(sim, done))
		}
	}
	return nil
}

// fill completes the result from the finished run: counters and the
// incrementally maintained measures from the engine, the rest from its
// final grid.
func (a *Arena) fill(sim simulation) {
	res := &a.res
	res.Iterations = sim.Steps()
	res.Moves = sim.Accepted()
	res.Rotations = sim.Rotations()
	res.Energy = sim.Energy()
	res.Perimeter = sim.Perimeter()
	res.Edges = sim.Edges()
	res.Alpha = metrics.Alpha(res.Perimeter, res.N)
	res.Beta = metrics.Beta(res.Perimeter, res.N)
	res.HoleFree = sim.HoleFree()
	if r, ok := sim.(*amoebotRun); ok {
		res.Rounds = r.w.Rounds()
	}
	g := sim.Grid()
	res.Triangles = g.Triangles()
	a.ptsBuf = g.AppendPoints(a.ptsBuf[:0])
	for _, p := range a.ptsBuf {
		res.Points = append(res.Points, Point{X: p.X, Y: p.Y})
	}
}

// ruleFor returns the cached compiled rule for the task's rule axis,
// compiling it on first use. Rules are immutable after compilation, so
// sharing one across runs (and engines) is sound.
func (a *Arena) ruleFor(opts Options) (*rule.Rule, error) {
	return a.ruleWith(opts.Rule, opts.Lambda, opts.RuleStates, opts.Forage)
}

// Rule returns the arena's cached compiled rule for (name, λ, states),
// compiling on first use. Forage rules compile with the default schedule;
// use ForageRule for an explicit one.
func (a *Arena) Rule(name string, lambda float64, states int) (*rule.Rule, error) {
	return a.ruleWith(name, lambda, states, nil)
}

// ForageRule returns the arena's cached foraging rule for (λ, schedule),
// compiling on first use.
func (a *Arena) ForageRule(lambda float64, spec *ForageSpec) (*rule.Rule, error) {
	return a.ruleWith(RuleForage, lambda, 0, spec)
}

func (a *Arena) ruleWith(name string, lambda float64, states int, forage *ForageSpec) (*rule.Rule, error) {
	k := arenaRuleKey{name: name, lambda: lambda, states: states, schedule: forage.cacheKey()}
	if ru, ok := a.rules[k]; ok {
		return ru, nil
	}
	ru, err := NewRule(name, lambda, states, forage)
	if err != nil {
		return nil, err
	}
	a.rules[k] = ru
	return ru, nil
}

// Sequential readies the arena's engine of the named kind over the given
// start shape and returns it, reusing the cached start points and resetting
// the engine in place like Compress does. The engine is valid until the
// arena's next Compress or Sequential call; callers drive it directly
// (scaling and mixing scenarios, which need RunUntil and mid-run reads).
func (a *Arena) Sequential(engine string, shape StartShape, n int, ru *rule.Rule, seed uint64) (Sequential, error) {
	pts, err := a.startPoints(Options{Start: shape, N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	return a.engineFor(engine, pts, ru, seed)
}

// startPoints returns the task's starting configuration as a canonical
// point list. Deterministic shapes (line, spiral) are seed-independent and
// cached per (shape, n); randomized shapes are rebuilt from the seed.
func (a *Arena) startPoints(opts Options) ([]lattice.Point, error) {
	shape := opts.Start
	if shape == "" {
		shape = StartLine
	}
	deterministic := shape == StartLine || shape == StartSpiral
	k := arenaStartKey{shape: shape, n: opts.N}
	if deterministic {
		if pts, ok := a.starts[k]; ok {
			return pts, nil
		}
	}
	cfg, err := NewStartConfig(shape, opts.N, opts.Seed)
	if err != nil {
		return nil, err
	}
	pts := cfg.Points()
	if deterministic {
		a.starts[k] = pts
	}
	return pts, nil
}

// engineFor readies the requested engine over the starting points: the
// first task of each engine kind constructs it, every later task resets it
// in place (proven bit-identical to fresh construction by the engines' own
// reset tests) and detaches the previous task's delta tap.
func (a *Arena) engineFor(engine string, pts []lattice.Point, ru *rule.Rule, seed uint64) (Sequential, error) {
	switch engine {
	case EngineChain, "":
		if a.chain == nil {
			c, err := chain.NewWithRule(config.New(pts...), ru, seed)
			if err != nil {
				return nil, err
			}
			a.chain = c
			return c, nil
		}
		if err := a.chain.Reset(pts, ru, seed); err != nil {
			return nil, err
		}
		a.chain.SetMoveLog(nil)
		return a.chain, nil
	case EngineKMC:
		if a.kmc == nil {
			c, err := kmc.NewWithRule(config.New(pts...), ru, seed)
			if err != nil {
				return nil, err
			}
			a.kmc = c
			return c, nil
		}
		if err := a.kmc.Reset(pts, ru, seed); err != nil {
			return nil, err
		}
		a.kmc.SetMoveLog(nil)
		return a.kmc, nil
	}
	return nil, fmt.Errorf("sops: engine %q is not sequential (want %s|%s)", engine, EngineChain, EngineKMC)
}

// amoebot builds an Algorithm A run over the starting points: payload
// states and crash failures drawn from the run seed, then the Poisson
// scheduler (or, with Workers > 1, concurrent activation).
func (a *Arena) amoebot(opts Options, pts []lattice.Point, ru *rule.Rule) (simulation, error) {
	proto, err := amoebot.NewMetropolis(ru)
	if err != nil {
		return nil, err
	}
	w, err := amoebot.NewWorld(config.New(pts...))
	if err != nil {
		return nil, err
	}
	if !ru.Stateless() {
		// Initial payload states derive from the run seed so the full run
		// stays reproducible.
		w.SeedPayload(ru.States(), opts.Seed)
	}
	if opts.CrashFraction > 0 {
		rng := rand.New(rand.NewPCG(opts.Seed, 0xdead))
		for _, id := range w.CrashFraction(rng, opts.CrashFraction) {
			t := w.Particle(id).Tail()
			a.res.Crashed = append(a.res.Crashed, Point{X: t.X, Y: t.Y})
		}
	}
	r := &amoebotRun{w: w, ru: ru, proto: proto, seed: opts.Seed, workers: opts.Workers}
	if opts.Workers <= 1 {
		r.sched = amoebot.NewPoissonScheduler(w, proto, opts.Seed)
	}
	return r, nil
}

// amoebotRun is Algorithm A as a simulation. Its measures come from the
// world's tail grid: the paper's configuration σ is the particles' tails
// (§2.2).
type amoebotRun struct {
	w     *amoebot.World
	ru    *rule.Rule
	proto amoebot.Protocol
	sched *amoebot.PoissonScheduler

	seed    uint64
	workers int
	chunk   uint64
}

func (r *amoebotRun) Run(k uint64) uint64 {
	if r.sched != nil {
		r.sched.RunActivations(k)
		return k
	}
	r.chunk++
	// Each chunk derives fresh per-worker streams; reusing the raw seed
	// would replay identical randomness every chunk.
	amoebot.RunConcurrent(r.w, r.proto, r.seed+r.chunk*0x9e3779b97f4a7c15, r.workers, k)
	return k
}

func (r *amoebotRun) Steps() uint64               { return r.w.Activations() }
func (r *amoebotRun) Accepted() uint64            { return r.w.Moves() }
func (r *amoebotRun) Rotations() uint64           { return r.w.Rotations() }
func (r *amoebotRun) Perimeter() int              { return r.w.Tails().Perimeter() }
func (r *amoebotRun) Edges() int                  { return r.w.Tails().Edges() }
func (r *amoebotRun) Energy() int                 { return r.w.Energy(r.ru) }
func (r *amoebotRun) HoleFree() bool              { return !r.w.Tails().HasHoles() }
func (r *amoebotRun) SetMoveLog(l *frame.MoveLog) { r.w.SetMoveLog(l) }
func (r *amoebotRun) Grid() *grid.Grid            { return r.w.Tails() }

// snapshotter measures snapshots and feeds them to the run's hooks: it
// renders the optional SVG into a buffer reused across frames and, for
// DeltaFunc, drains the move log the engine appends to.
type snapshotter struct {
	n       int
	ru      *rule.Rule
	svg     bool
	fn      func(Snapshot)
	dfn     func(Snapshot, Delta)
	tracked bool
	log     frame.MoveLog
	buf     []byte
}

// reset readies the snapshotter for one run of sim, emptying the move log,
// and with DeltaFunc set wires sim's moves into it. Concurrent activations
// cannot log moves coherently; the delta tap then marks intervals
// untracked and every frame becomes a keyframe.
func (sn *snapshotter) reset(opts Options, ru *rule.Rule, sim simulation) {
	sn.n, sn.ru = opts.N, ru
	sn.svg, sn.fn, sn.dfn = opts.SnapshotSVG, opts.SnapshotFunc, opts.DeltaFunc
	sn.tracked = opts.Workers <= 1
	sn.log.Drain()
	if sn.dfn != nil && sn.tracked {
		sim.SetMoveLog(&sn.log)
	}
}

// take measures sim after done iterations and delivers the snapshot to
// SnapshotFunc, then with the interval's moves to DeltaFunc.
func (sn *snapshotter) take(sim simulation, done uint64) Snapshot {
	p := sim.Perimeter()
	s := Snapshot{
		Iteration: done,
		Perimeter: p,
		Edges:     sim.Edges(),
		Energy:    sim.Energy(),
		Alpha:     metrics.Alpha(p, sn.n),
		Beta:      metrics.Beta(p, sn.n),
		HoleFree:  sim.HoleFree(),
		Bias:      snapBias(sn.ru, done),
	}
	if sn.svg {
		sn.buf = viz.AppendSVG(sn.buf[:0], config.FromGrid(sim.Grid()), nil)
		s.SVG = string(sn.buf)
	}
	if sn.fn != nil {
		sn.fn(s)
	}
	if sn.dfn != nil {
		sn.dfn(s, Delta{
			Moves:    sn.log.Drain(),
			Tracked:  sn.tracked,
			Payloads: !sn.ru.Stateless(),
			Grid:     sim.Grid(),
		})
	}
	return s
}
