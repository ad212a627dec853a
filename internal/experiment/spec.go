// Package experiment is the declarative, resumable experiment engine of the
// repository. An Experiment Spec names a scenario from the registry and
// sweeps it over axes (λ, particle count, start shape, engine, crash
// fraction, rule; λ outermost and the rule innermost in the point order)
// with per-point replication; Run executes the resulting task grid on a
// worker pool, journaling every completed (point, rep) task to a JSONL file
// so an interrupted sweep resumes where it left off, and emits
// machine-readable results (JSONL + CSV + a BENCH_*.json summary).
//
// Determinism contract: every task derives its seed from (Spec.Seed, point
// index, rep), and aggregation always folds samples in rep order, so the
// final PointSummaries are byte-identical for a given normalized Spec
// regardless of worker count, scheduling order, or how many times the sweep
// was interrupted and resumed.
package experiment

import (
	"fmt"
	"slices"

	"sops/internal/rule"
	"sops/internal/runner"
)

// Engine names for the Spec.Engines axis.
const (
	// EngineChain runs the sequential Markov chain M (Metropolis on the
	// bit-packed grid).
	EngineChain = runner.EngineChain
	// EngineKMC runs the rejection-free (kinetic Monte Carlo) formulation
	// of chain M: identical distribution at equal step budgets, events
	// instead of proposals.
	EngineKMC = runner.EngineKMC
	// EngineAmoebot runs the distributed amoebot Algorithm A under a
	// Poisson-clock scheduler.
	EngineAmoebot = runner.EngineAmoebot
)

// Spec declares one experiment: a scenario from the registry, swept over the
// cross product of its axes. Empty axes are filled first from the scenario's
// defaults and then from global defaults (λ=4, n=50, line start, chain
// engine, no crashes), so the zero-but-for-Scenario Spec is runnable.
//
// A Spec is the identity of a sweep: Run persists the normalized Spec next
// to the journal and refuses to resume a directory whose recorded Spec
// differs. Execution knobs that cannot change results (worker count,
// progress output) live in RunOptions instead.
type Spec struct {
	// Scenario is a registry name; see List.
	Scenario string `json:"scenario"`
	// Lambdas are the bias values to sweep.
	Lambdas []float64 `json:"lambdas"`
	// Sizes are the particle counts to sweep.
	Sizes []int `json:"sizes"`
	// Starts are starting shapes: line|spiral|random|tree.
	Starts []string `json:"starts"`
	// Engines are execution engines: chain|kmc|amoebot.
	Engines []string `json:"engines"`
	// Rules are local rules: compression|align|forage. Empty means compression
	// only — the normalized Spec keeps the axis empty in that case (and
	// collapses an explicit ["compression"] to empty), so experiment
	// directories journaled before the rule axis existed keep resuming.
	Rules []string `json:"rules,omitempty"`
	// RuleStates overrides the payload state count of rules that carry one
	// (alignment's orientation count k); zero selects each rule's default.
	RuleStates int `json:"rule_states,omitempty"`
	// Forage configures the foraging bias schedule of forage-rule points
	// (food sites, radius, exhaustion step, λ_low, epoch). Nil — and a
	// schedule that resolves to the defaults, which normalization collapses
	// back to nil so pre-schedule experiment directories keep resuming —
	// selects the default schedule. Requires the forage rule on the axis.
	Forage *runner.ForageSpec `json:"forage,omitempty"`
	// CrashFractions are crash-failure fractions (amoebot engine only).
	CrashFractions []float64 `json:"crash_fractions"`
	// Reps is the number of independent replications per sweep point
	// (default 1).
	Reps int `json:"reps"`
	// Iterations is the per-run budget; zero lets the scenario choose
	// (typically 200·n² for compression runs, a 400·n³ cap for scaling).
	Iterations uint64 `json:"iterations,omitempty"`
	// SnapshotEvery asks scenarios that support it to record mid-run
	// snapshot metrics at this cadence; zero disables snapshots.
	SnapshotEvery uint64 `json:"snapshot_every,omitempty"`
	// Seed is the base seed all task seeds derive from.
	Seed uint64 `json:"seed"`
}

// Point is one sweep coordinate: a concrete assignment of every axis.
type Point struct {
	Lambda float64 `json:"lambda"`
	N      int     `json:"n"`
	Start  string  `json:"start"`
	Engine string  `json:"engine"`
	Rule   string  `json:"rule"`
	Crash  float64 `json:"crash"`
}

func (p Point) String() string {
	s := fmt.Sprintf("λ=%g n=%d %s/%s", p.Lambda, p.N, p.Start, p.Engine)
	if p.Rule != "" && p.Rule != runner.RuleCompression {
		s += fmt.Sprintf(" rule=%s", p.Rule)
	}
	if p.Crash > 0 {
		s += fmt.Sprintf(" crash=%g", p.Crash)
	}
	return s
}

// Task is one unit of work: a sweep point with a replication index and a
// derived seed. Scenario Run functions must be deterministic given the task.
type Task struct {
	Point      Point
	PointIndex int
	Rep        int
	Seed       uint64
	// Arena is the executing worker's reusable run context; Run always
	// sets it. Scenarios run and construct engines through it, so
	// steady-state sweep execution performs no cross-task allocation. It
	// is an execution-side resource — never part of the task's identity,
	// never journaled.
	Arena *runner.Arena `json:"-"`
	// OnSnapshot, when non-nil, receives every mid-run snapshot of this
	// task as it is taken (scenarios that run snapshots forward it into
	// runner.Options.SnapshotFunc). It is an execution-side observer
	// injected from RunOptions.OnSnapshot — never part of the task's
	// identity, never journaled, and free for scenarios to ignore.
	OnSnapshot func(runner.Snapshot) `json:"-"`
	// Interrupt, when non-nil, asks the scenario to abandon the task:
	// runs poll it at least every runner.PollEvery iterations and return
	// runner.ErrInterrupted. Run injects the sweep context here; an
	// interrupted task is dropped unjournaled and reruns on resume.
	Interrupt func() bool `json:"-"`
}

// Metrics is a bag of named measurements produced by one run.
type Metrics map[string]float64

// normalized fills empty axes (scenario defaults first, then global
// defaults), clamps Reps, and validates every axis value. The normalized
// Spec is what gets journaled and what task seeds derive from.
func (s Spec) normalized(sc Scenario) (Spec, error) {
	if sc.Defaults != nil {
		sc.Defaults(&s)
	}
	if len(s.Lambdas) == 0 {
		s.Lambdas = []float64{4}
	}
	if len(s.Sizes) == 0 {
		s.Sizes = []int{50}
	}
	if len(s.Starts) == 0 {
		s.Starts = []string{string(runner.StartLine)}
	}
	if len(s.Engines) == 0 {
		s.Engines = []string{EngineChain}
	}
	if len(s.CrashFractions) == 0 {
		s.CrashFractions = []float64{0}
	}
	if s.Reps < 1 {
		s.Reps = 1
	}
	for _, l := range s.Lambdas {
		if err := rule.ValidateLambda(l); err != nil {
			return s, fmt.Errorf("experiment: %w", err)
		}
	}
	rules := s.Rules
	if len(rules) == 0 {
		rules = []string{runner.RuleCompression}
	}
	// Every other option of the sweep's runs is runner's to check: each
	// axis value once (each distinct engine × crash pair and rule once), in
	// the run options of a point that takes every other axis at its first
	// value. The grid is never expanded, and no rule is compiled twice.
	first := Point{Lambda: s.Lambdas[0], N: s.Sizes[0], Start: s.Starts[0], Engine: s.Engines[0],
		Rule: rules[0], Crash: s.CrashFractions[0]}
	check := func(p Point) error {
		if err := s.options(Task{Point: p}).Validate(); err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
		return nil
	}
	for _, n := range s.Sizes {
		p := first
		p.N = n
		if err := check(p); err != nil {
			return s, err
		}
	}
	for _, st := range s.Starts {
		p := first
		p.Start = st
		if err := check(p); err != nil {
			return s, err
		}
	}
	for _, e := range distinct(s.Engines) {
		for _, c := range distinct(s.CrashFractions) {
			p := first
			p.Engine, p.Crash = e, c
			if err := check(p); err != nil {
				return s, err
			}
		}
	}
	// Each rule compiles once, which checks its name, its states and the
	// forage schedule. A states override survives only if a payload rule
	// keeps it, so a stray one cannot make two behaviorally identical
	// sweeps look like different experiments.
	keepStates := false
	for _, r := range distinct(rules) {
		p := first
		p.Rule = r
		o, err := s.options(Task{Point: p}).Normalized()
		if err != nil {
			return s, fmt.Errorf("experiment: %w", err)
		}
		keepStates = keepStates || o.RuleStates != 0
	}
	if !keepStates {
		s.RuleStates = 0
	}
	// A compression-only axis collapses to empty and a schedule equal to
	// the default to nil, so the normalized Spec — the identity resume
	// checks — is unchanged for every experiment directory journaled before
	// the rule axis or the schedule existed.
	if len(s.Rules) == 1 && s.Rules[0] == runner.RuleCompression {
		s.Rules = nil
	}
	s.Forage = s.Forage.Normalized()
	return s, nil
}

// distinct returns vs without repeats, in first-seen order.
func distinct[T comparable](vs []T) []T {
	seen := make(map[T]bool, len(vs))
	var out []T
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// options returns the run options of a task: its point's axis values, the
// spec's budget, states override, forage schedule and snapshot cadence, and
// the task's seed and hooks. Normalization checks these same options.
func (s Spec) options(t Task) runner.Options {
	p := t.Point
	return runner.Options{
		N:             p.N,
		Lambda:        p.Lambda,
		Iterations:    s.Iterations,
		Seed:          t.Seed,
		Start:         runner.StartShape(p.Start),
		Engine:        p.Engine,
		Rule:          p.Rule,
		RuleStates:    s.RuleStates,
		Forage:        forageFor(s, p),
		CrashFraction: p.Crash,
		SnapshotEvery: s.SnapshotEvery,
		SnapshotFunc:  t.OnSnapshot,
		Interrupt:     t.Interrupt,
	}
}

// forageFor returns the Spec.Forage schedule a point's run carries. The
// schedule belongs to the forage rule: on a rules axis with forage, points
// of other rules run without it. On an axis without forage every point
// carries it, and runner refuses a schedule on any other rule, so such a
// spec does not normalize.
func forageFor(sp Spec, p Point) *runner.ForageSpec {
	if p.Rule == runner.RuleForage || !slices.Contains(sp.Rules, runner.RuleForage) {
		return sp.Forage
	}
	return nil
}

// points expands the axes into the sweep grid. The order — λ outermost, then
// size, start, engine, crash, rule — is part of the determinism contract:
// point indices (and hence task seeds and journal entries) depend on it. The
// rule axis is innermost so single-rule sweeps (every pre-rule-axis journal)
// keep their point indices.
func (s Spec) points() []Point {
	rules := s.Rules
	if len(rules) == 0 {
		rules = []string{runner.RuleCompression}
	}
	out := make([]Point, 0, len(s.Lambdas)*len(s.Sizes)*len(s.Starts)*len(s.Engines)*len(s.CrashFractions)*len(rules))
	for _, l := range s.Lambdas {
		for _, n := range s.Sizes {
			for _, st := range s.Starts {
				for _, e := range s.Engines {
					for _, c := range s.CrashFractions {
						for _, r := range rules {
							out = append(out, Point{Lambda: l, N: n, Start: st, Engine: e, Rule: r, Crash: c})
						}
					}
				}
			}
		}
	}
	return out
}

// taskSeed derives the per-task seed. The multipliers are the SplitMix64
// constants; distinct (point, rep) pairs get distinct, well-mixed seeds while
// staying reproducible from the base seed alone.
func taskSeed(base uint64, pointIdx, rep int) uint64 {
	return base ^ (uint64(pointIdx+1) * 0x9e3779b97f4a7c15) ^ (uint64(rep+1) * 0xbf58476d1ce4e5b9)
}
