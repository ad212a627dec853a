// Package runner executes single simulation runs: it builds the starting
// configuration, drives the sequential Markov chain M, the rejection-free
// kMC engine or the distributed amoebot Algorithm A for a fixed budget,
// takes mid-run snapshots, and reports the compression metrics of the
// final configuration. Every run goes through an Arena. The root sops
// package re-exports these types as the public facade; internal/experiment
// fans runner calls out into sweeps.
package runner

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"sops/internal/chain"
	"sops/internal/config"
	"sops/internal/frame"
	"sops/internal/grid"
	"sops/internal/kmc"
	"sops/internal/lattice"
	"sops/internal/rule"
	"sops/internal/viz"
)

// Engine names. EngineChain and EngineKMC simulate the same sequential
// stochastic process — the Metropolis chain evaluates every proposal and the
// rejection-free kMC engine samples only applied moves, agreeing in
// distribution at equal step counts — while EngineAmoebot runs the
// distributed Algorithm A.
const (
	EngineChain   = "chain"
	EngineKMC     = "kmc"
	EngineAmoebot = "amoebot"
)

// Engines lists every execution engine.
func Engines() []string { return []string{EngineChain, EngineKMC, EngineAmoebot} }

// Rule names for Options.Rule and the experiment rule axis. Every engine
// runs every rule: the rule decides which local moves are admissible and
// how the Metropolis filter prices them, the engine decides how the
// resulting process is simulated.
const (
	// RuleCompression is the paper's chain M (H(σ) = e(σ)); the default.
	RuleCompression = rule.NameCompression
	// RuleAlignment is the oriented-particle alignment chain
	// (H(σ) = aligned edges, orientation payloads, rotation moves).
	RuleAlignment = rule.NameAlignment

	// RuleForage is declared in forage.go next to its schedule type.
)

// Rules lists every built-in rule name.
func Rules() []string { return rule.Names() }

// Sequential is the interface shared by the sequential chain engines:
// *chain.Chain (Metropolis on the bit-packed grid) and *kmc.Chain
// (rejection-free). Steps and Run both count Metropolis-equivalent
// iterations, so budgets and stopping rules are engine-independent.
type Sequential interface {
	Run(n uint64) uint64
	Steps() uint64
	Accepted() uint64
	Rotations() uint64
	Perimeter() int
	Edges() int
	Energy() int
	HoleFree() bool
	Config() *config.Config
	N() int
	Lambda() float64
	// SetMoveLog attaches a tap recording every accepted move and payload
	// rotation; nil detaches. Grid exposes the live occupancy grid for
	// read-only observation between Run calls. Together they feed the
	// delta frame encoder (Options.DeltaFunc).
	SetMoveLog(*frame.MoveLog)
	Grid() *grid.Grid
}

var (
	_ Sequential = (*chain.Chain)(nil)
	_ Sequential = (*kmc.Chain)(nil)
)

// NewSequentialWithRule constructs the named sequential engine ("" selects
// EngineChain) over a copy of σ0, which must be connected, running an
// arbitrary compiled rule.
func NewSequentialWithRule(engine string, sigma0 *config.Config, ru *rule.Rule, seed uint64) (Sequential, error) {
	o, err := Options{N: sigma0.N(), Engine: engine}.resolved()
	if err != nil {
		return nil, err
	}
	if !sigma0.Connected() {
		return nil, fmt.Errorf("runner: starting configuration must be connected")
	}
	return new(Arena).engineFor(o.Engine, sigma0.Points(), ru, seed)
}

// StartShape selects the initial configuration of a run.
type StartShape string

// Supported starting shapes.
const (
	// StartLine places the particles in a straight line: the maximum-
	// perimeter start used in the paper's simulations (Figs 2, 10).
	StartLine StartShape = "line"
	// StartSpiral places the particles in the minimum-perimeter hexagonal
	// spiral.
	StartSpiral StartShape = "spiral"
	// StartRandom grows a random connected configuration (Eden growth),
	// possibly containing holes.
	StartRandom StartShape = "random"
	// StartTree grows a random induced tree: maximum perimeter, no holes.
	StartTree StartShape = "tree"
)

// StartShapes lists every supported starting shape.
func StartShapes() []StartShape {
	return []StartShape{StartLine, StartSpiral, StartRandom, StartTree}
}

// ErrInterrupted is returned by Compress when Options.Interrupt stopped the
// run before the iteration budget was spent.
var ErrInterrupted = errors.New("runner: run interrupted")

// Point is a vertex of the triangular lattice in axial coordinates.
type Point = lattice.Point

// Snapshot records the system state at one instant of a run. It is also the
// wire format of the `sops serve` streaming endpoint, hence the JSON tags.
type Snapshot struct {
	// Iteration counts Markov chain iterations (sequential runs) or
	// particle activations (distributed runs).
	Iteration uint64 `json:"iteration"`
	Perimeter int    `json:"perimeter"`
	Edges     int    `json:"edges"`
	// Energy is the rule's Hamiltonian H(σ): e(σ) for compression, the
	// aligned-edge count for alignment.
	Energy   int     `json:"energy"`
	Alpha    float64 `json:"alpha"` // perimeter / pmin
	Beta     float64 `json:"beta"`  // perimeter / pmax
	HoleFree bool    `json:"hole_free"`
	// Bias is the effective bias λ(t) at this instant for rules with a
	// time-varying schedule, probed at the rule's reference site (a food
	// site for forage). Zero — and omitted on the wire — for fixed-λ rules.
	Bias float64 `json:"bias,omitempty"`
	// SVG is a rendering of the configuration at this instant, filled only
	// when Options.SnapshotSVG is set.
	SVG string `json:"svg,omitempty"`
}

// Result reports a completed run. It doubles as the stored result document
// of `sops serve` run jobs, hence the JSON tags.
type Result struct {
	N          int     `json:"n"`
	Lambda     float64 `json:"lambda"`
	Iterations uint64  `json:"iterations"`
	// Rule is the local rule the run executed (RuleCompression by default).
	Rule string `json:"rule"`
	// Moves counts accepted particle relocations.
	Moves uint64 `json:"moves"`
	// Rotations counts accepted payload changes (payload rules only).
	Rotations uint64 `json:"rotations,omitempty"`
	Perimeter int    `json:"perimeter"`
	Edges     int    `json:"edges"`
	// Energy is the final H(σ): e(σ) for compression, aligned edges for
	// alignment.
	Energy    int     `json:"energy"`
	Triangles int     `json:"triangles"`
	Alpha     float64 `json:"alpha"`
	Beta      float64 `json:"beta"`
	HoleFree  bool    `json:"hole_free"`
	// Rounds is the number of asynchronous rounds (distributed runs only).
	Rounds uint64 `json:"rounds,omitempty"`
	// Crashed lists crash-failed particle positions (distributed runs with
	// CrashFraction > 0).
	Crashed []Point `json:"crashed,omitempty"`
	// Points is the final configuration (tails of all particles).
	Points []Point `json:"points"`
	// Snapshots holds the requested mid-run measurements in order.
	Snapshots []Snapshot `json:"snapshots,omitempty"`
	// Rendering is an ASCII drawing of the final configuration.
	Rendering string `json:"rendering,omitempty"`
}

// SVG renders the final configuration as a standalone SVG document in the
// style of the paper's figures (particles with induced edges drawn; crashed
// particles hollow).
func (r *Result) SVG() string {
	return string(r.AppendSVG(nil))
}

// AppendSVG appends the final configuration's SVG document to buf and
// returns the extended slice — the reusable-buffer path behind SVG for
// callers rendering many results.
func (r *Result) AppendSVG(buf []byte) []byte {
	cfg, marks := r.final()
	return viz.AppendSVG(buf, cfg, marks)
}

// final returns the final configuration and the set of crashed particles
// that renderings mark.
func (r *Result) final() (*config.Config, map[Point]bool) {
	marks := make(map[Point]bool, len(r.Crashed))
	for _, p := range r.Crashed {
		marks[p] = true
	}
	return config.New(r.Points...), marks
}

// Options configures a run. The zero value is not runnable: N and Lambda
// must be positive. The JSON tags define the run-job wire format of
// `sops serve`; the callback fields are execution-side hooks excluded from
// serialization (and from the serve cache digest).
type Options struct {
	// N is the number of particles.
	N int `json:"n"`
	// Lambda is the bias parameter λ. λ > 2+√2 compresses; λ < 2.17
	// expands.
	Lambda float64 `json:"lambda"`
	// Iterations is the number of chain iterations (sequential) or particle
	// activations (distributed). Defaults to 200·N² if zero.
	Iterations uint64 `json:"iterations,omitempty"`
	// Seed makes the run reproducible. Runs with equal options and seed
	// produce identical results.
	Seed uint64 `json:"seed"`
	// Start selects the initial shape; default StartLine.
	Start StartShape `json:"start,omitempty"`
	// Engine selects the execution engine: EngineChain (default), EngineKMC
	// (rejection-free sequential engine), or EngineAmoebot (the distributed
	// Algorithm A under Poisson clocks).
	Engine string `json:"engine,omitempty"`
	// Rule selects the local rule: RuleCompression (default),
	// RuleAlignment, or RuleForage. Every engine runs every rule.
	Rule string `json:"rule,omitempty"`
	// Forage configures the foraging bias schedule of RuleForage runs:
	// food sites, radius, exhaustion step, λ_low, and epoch. Nil selects
	// the default schedule; setting it with any other rule is an error.
	Forage *ForageSpec `json:"forage,omitempty"`
	// RuleStates overrides the payload state count of rules that carry one
	// (alignment's orientation count k); zero selects the rule's default.
	// Stateless rules drop an override; a negative count is an error.
	RuleStates int `json:"rule_states,omitempty"`
	// CrashFraction crash-fails this fraction of particles at the start of
	// a distributed run (§3.3 fault tolerance). Only valid with
	// EngineAmoebot.
	CrashFraction float64 `json:"crash_fraction,omitempty"`
	// SnapshotEvery records a snapshot every given number of iterations;
	// zero disables snapshots.
	SnapshotEvery uint64 `json:"snapshot_every,omitempty"`
	// SnapshotSVG additionally renders each snapshot's configuration into
	// Snapshot.SVG. Frames share one render buffer, so the per-frame cost
	// is the formatting alone (BenchmarkSnapshotEncode).
	SnapshotSVG bool `json:"snapshot_svg,omitempty"`
	// SnapshotFunc, when non-nil, receives every snapshot as it is taken,
	// in iteration order, before the run continues. Snapshots are still
	// appended to Result.Snapshots. The `sops serve` streaming endpoint
	// hooks here; the callback must not retain the engine.
	SnapshotFunc func(Snapshot) `json:"-"`
	// DeltaFunc, when non-nil, additionally receives every snapshot
	// together with the accepted moves of its interval and the engine's
	// live grid — the hook behind the binary delta frame encoder of
	// `sops serve`. The Delta's slices and grid are valid only during the
	// callback. Called after SnapshotFunc.
	DeltaFunc func(Snapshot, Delta) `json:"-"`
	// Interrupt, when non-nil, is polled at the start of every snapshot
	// interval and at least every PollEvery iterations within one (RunPolled):
	// returning true stops the run and Compress returns ErrInterrupted.
	Interrupt func() bool `json:"-"`
}

// NewStartConfig builds the starting configuration for a shape (default
// StartLine when empty), particle count, and seed. Random shapes derive
// their randomness from the seed, so equal arguments rebuild the identical
// configuration.
func NewStartConfig(shape StartShape, n int, seed uint64) (*config.Config, error) {
	o, err := Options{N: n, Start: shape, Seed: seed}.resolved()
	if err != nil {
		return nil, err
	}
	return o.startConfig(), nil
}

// startConfig builds the starting configuration of resolved options.
func (o Options) startConfig() *config.Config {
	switch o.Start {
	case StartSpiral:
		return config.Spiral(o.N)
	case StartRandom:
		return config.RandomConnected(rand.New(rand.NewPCG(o.Seed, 0xabcd)), o.N)
	case StartTree:
		return config.RandomTree(rand.New(rand.NewPCG(o.Seed, 0xabce)), o.N)
	}
	return config.Line(o.N)
}

// Compress runs one simulation on the engine Options.Engine selects —
// chain M (the default), the rejection-free kMC engine, or the distributed
// amoebot Algorithm A, all implementations of the same stochastic process
// (§3.2) — and returns the final metrics. It is a single-use Arena plus the
// ASCII Rendering of the final configuration, which arena results omit.
func Compress(opts Options) (*Result, error) {
	res, err := NewArena().Compress(opts)
	if err != nil {
		return nil, err
	}
	out := *res
	out.Rendering = viz.RenderMarked(out.final())
	return &out, nil
}

// Normalized returns the canonical form of o: every default made explicit,
// a states override the rule drops zeroed, and the options validated
// exactly as Compress validates them. Two Options with equal normalized
// forms run identical simulations, which is what makes the normalized
// encoding a sound cache key for `sops serve` run jobs (callback fields are
// excluded from serialization and cannot affect results).
func (o Options) Normalized() (Options, error) {
	o, err := o.resolved()
	if err != nil {
		return o, err
	}
	ru, err := NewRule(o.Rule, o.Lambda, o.RuleStates, o.Forage)
	if err != nil {
		return o, err
	}
	if ru.Stateless() {
		o.RuleStates = 0
	}
	o.Forage = o.Forage.Normalized()
	return o, nil
}

// Validate checks o as Compress does, except for λ and the rule, which
// only compiling the rule checks (NewRule). A sweep checks each of its
// axis values once through it, without compiling a rule per value.
func (o Options) Validate() error {
	_, err := o.resolved()
	return err
}

// resolved returns o with each default made explicit, after checking every
// option but λ and the rule, which NewRule checks. Together they are the
// one place where a run option gets its default and its check: Compress,
// Normalized, Validate and the package's constructors all go through
// resolved.
func (o Options) resolved() (Options, error) {
	if o.N < 1 {
		return o, fmt.Errorf("runner: N must be positive, got %d", o.N)
	}
	if o.Start == "" {
		o.Start = StartLine
	}
	switch o.Start {
	case StartLine, StartSpiral, StartRandom, StartTree:
	default:
		return o, fmt.Errorf("runner: unknown start shape %q", o.Start)
	}
	if o.Engine == "" {
		o.Engine = EngineChain
	}
	switch o.Engine {
	case EngineChain, EngineKMC, EngineAmoebot:
	default:
		return o, fmt.Errorf("runner: unknown engine %q (want %s|%s|%s)", o.Engine, EngineChain, EngineKMC, EngineAmoebot)
	}
	if o.Rule == "" {
		o.Rule = RuleCompression
	}
	if o.RuleStates < 0 {
		return o, fmt.Errorf("runner: RuleStates must be non-negative, got %d", o.RuleStates)
	}
	if !(o.CrashFraction >= 0 && o.CrashFraction < 1) { // refuses NaN too
		return o, fmt.Errorf("runner: CrashFraction must be in [0,1), got %v", o.CrashFraction)
	}
	if o.CrashFraction > 0 && o.Engine != EngineAmoebot {
		return o, fmt.Errorf("runner: CrashFraction requires the %s engine", EngineAmoebot)
	}
	if o.Iterations == 0 {
		o.Iterations = 200 * uint64(o.N) * uint64(o.N)
	}
	return o, nil
}

// Delta carries the incremental state behind one snapshot to
// Options.DeltaFunc.
type Delta struct {
	// Moves are the accepted moves of the snapshot interval, in
	// application order. Valid only during the callback.
	Moves []frame.Move
	// Payloads reports whether the run's rule carries per-particle
	// payload state.
	Payloads bool
	// Grid is the engine's live configuration at the snapshot instant.
	// Read-only, valid only during the callback.
	Grid *grid.Grid
}

// snapBias evaluates the effective λ(t) of a biased rule at the snapshot
// instant, probed at the rule's reference site (a food site for forage).
// Zero for fixed-λ rules, so Snapshot.Bias stays off the wire and the
// streaming format of pre-existing runs is unchanged.
func snapBias(ru *rule.Rule, done uint64) float64 {
	if !ru.Biased() {
		return 0
	}
	return ru.BiasAt(done, ru.BiasProbe())
}
