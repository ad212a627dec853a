package experiment

import (
	"fmt"

	"sops/internal/baseline"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/rule"
	"sops/internal/runner"
	"sops/internal/stats"
)

// newSequential readies the worker arena's sequential engine of the task's
// engine axis, running the task's rule, with the task's start shape and
// derived seed: a reset arena-resident engine, no per-task construction.
func newSequential(sp Spec, t Task) (runner.Sequential, error) {
	if t.Point.Engine != EngineChain && t.Point.Engine != EngineKMC {
		return nil, fmt.Errorf("scenario requires a sequential engine (%s|%s), got %q",
			EngineChain, EngineKMC, t.Point.Engine)
	}
	var ru *rule.Rule
	var err error
	if t.Point.Rule == runner.RuleForage {
		ru, err = t.Arena.ForageRule(t.Point.Lambda, sp.Forage)
	} else {
		ru, err = t.Arena.Rule(t.Point.Rule, t.Point.Lambda, sp.RuleStates)
	}
	if err != nil {
		return nil, err
	}
	return t.Arena.Sequential(t.Point.Engine, runner.StartShape(t.Point.Start), t.Point.N, ru, t.Seed)
}

// The built-in scenarios: every workload the five pre-consolidation binaries
// and the benchmark harness ran, named so a sweep is a registry entry plus
// axes instead of a new binary.
func init() {
	Register(Scenario{
		Name:        "compress",
		Description: "compression run (chain M or amoebot A via the engine axis); metrics alpha/beta/perimeter/moves",
		Run:         runCompress,
	})
	Register(Scenario{
		Name:        "phase",
		Description: "λ phase diagram: compress swept over the paper's λ grid with a doubled iteration budget",
		Defaults: func(s *Spec) {
			if len(s.Lambdas) == 0 {
				s.Lambdas = []float64{0.5, 1, 1.5, 2, 2.17, 2.5, 3, 3.41, 4, 5, 6}
			}
		},
		Run: func(sp Spec, t Task) (Metrics, error) {
			if sp.Iterations == 0 {
				// The long-run measures of the phase plot need more than the
				// 200·n² compression default to stabilize near λc.
				sp.Iterations = 400 * uint64(t.Point.N) * uint64(t.Point.N)
			}
			return runCompress(sp, t)
		},
	})
	Register(Scenario{
		Name:        "fault-tolerance",
		Description: "distributed amoebot run with crash failures (§3.3); healthy particles compress around the dead",
		Defaults: func(s *Spec) {
			if len(s.Engines) == 0 {
				s.Engines = []string{EngineAmoebot}
			}
			if len(s.CrashFractions) == 0 {
				s.CrashFractions = []float64{0.1}
			}
			if len(s.Lambdas) == 0 {
				s.Lambdas = []float64{5}
			}
		},
		Run: runCompress,
	})
	Register(Scenario{
		Name:        "scaling",
		Description: "iterations until 2·pmin compression from a line (§3.7 conjecture); sweep sizes and fit the power law",
		Defaults: func(s *Spec) {
			if len(s.Sizes) == 0 {
				s.Sizes = []int{16, 32, 64}
			}
		},
		Run: runScaling,
	})
	Register(Scenario{
		Name:        "ablation-degree-guard",
		Description: "chain M with condition (1) removed: holes form (Lemma 3.2 ablation)",
		Defaults: func(s *Spec) {
			if len(s.Lambdas) == 0 {
				s.Lambdas = []float64{1}
			}
			if len(s.Sizes) == 0 {
				s.Sizes = []int{20}
			}
			if len(s.Starts) == 0 {
				s.Starts = []string{string(runner.StartSpiral)}
			}
		},
		Run: runAblation,
	})
	Register(Scenario{
		Name:        "baseline-hexagon",
		Description: "leader-based hexagon builder (§1.3 baseline): reaches pmin exactly but needs a leader",
		Run:         runBaseline,
	})
	Register(Scenario{
		Name:        "align",
		Description: "alignment rule (oriented particles, Kedia–Oh–Randall): compress-style run reporting the order parameter (aligned-edge fraction)",
		Defaults: func(s *Spec) {
			if len(s.Rules) == 0 {
				s.Rules = []string{runner.RuleAlignment}
			}
			if len(s.Engines) == 0 {
				s.Engines = []string{EngineChain}
			}
		},
		Run: runCompress,
	})
	Register(Scenario{
		Name:        "align-phase",
		Description: "alignment order parameter vs λ: the align run swept over the λ grid with a doubled iteration budget",
		Defaults: func(s *Spec) {
			if len(s.Rules) == 0 {
				s.Rules = []string{runner.RuleAlignment}
			}
			if len(s.Lambdas) == 0 {
				s.Lambdas = []float64{0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6}
			}
		},
		Run: func(sp Spec, t Task) (Metrics, error) {
			if sp.Iterations == 0 {
				// Orientation consensus mixes slower than geometry; give the
				// order parameter the same doubled budget the compression
				// phase diagram uses.
				sp.Iterations = 400 * uint64(t.Point.N) * uint64(t.Point.N)
			}
			return runCompress(sp, t)
		},
	})
	Register(Scenario{
		Name:        "forage",
		Description: "foraging via self-induced phase change (Oh–Richa): compressed near food at λ while it lasts, expanded at λ_low after exhaustion; metrics food-disk occupancy vs time",
		Defaults: func(s *Spec) {
			if len(s.Rules) == 0 {
				s.Rules = []string{runner.RuleForage}
			}
			if len(s.Lambdas) == 0 {
				s.Lambdas = []float64{5}
			}
			if len(s.Sizes) == 0 {
				s.Sizes = []int{30}
			}
			if len(s.Starts) == 0 {
				// Start compressed around the food so the food phase is
				// observable from the first snapshot.
				s.Starts = []string{string(runner.StartSpiral)}
			}
		},
		Run: runForage,
	})
	Register(Scenario{
		Name:        "mixing",
		Description: "integrated autocorrelation time of the perimeter series (empirical proxy for §3.7 mixing)",
		Defaults: func(s *Spec) {
			if len(s.Lambdas) == 0 {
				s.Lambdas = []float64{3, 4, 6}
			}
			if len(s.Sizes) == 0 {
				s.Sizes = []int{40}
			}
		},
		Run: runMixing,
	})
}

func runCompress(sp Spec, t Task) (Metrics, error) {
	res, err := t.Arena.Compress(sp.options(t))
	if err != nil {
		return nil, err
	}
	m := Metrics{
		"alpha":     res.Alpha,
		"beta":      res.Beta,
		"perimeter": float64(res.Perimeter),
		"edges":     float64(res.Edges),
		"moves":     float64(res.Moves),
		"hole_free": b2f(res.HoleFree),
	}
	for _, s := range res.Snapshots {
		m[fmt.Sprintf("alpha@%d", s.Iteration)] = s.Alpha
	}
	if t.Point.Rule != "" && t.Point.Rule != runner.RuleCompression {
		// Payload-rule observables: H(σ) and the order parameter (the
		// aligned fraction of induced edges for the alignment rule).
		m["energy"] = float64(res.Energy)
		m["rotations"] = float64(res.Rotations)
		if res.Edges > 0 {
			m["order"] = float64(res.Energy) / float64(res.Edges)
		}
		for _, s := range res.Snapshots {
			if s.Edges > 0 {
				m[fmt.Sprintf("order@%d", s.Iteration)] = float64(s.Energy) / float64(s.Edges)
			}
		}
	}
	if t.Point.Engine == EngineAmoebot {
		m["rounds"] = float64(res.Rounds)
		if t.Point.Crash > 0 {
			m["crashed"] = float64(len(res.Crashed))
		}
	}
	return m, nil
}

// runForage drives a forage-rule run and measures the self-induced phase
// change: the occupancy of the food disk over time. While food remains the
// swarm compresses onto the disk (occupancy rises); once it is exhausted
// the bias drops to λ_low and the swarm expands away (occupancy falls).
func runForage(sp Spec, t Task) (Metrics, error) {
	if t.Point.Rule != runner.RuleForage {
		return nil, fmt.Errorf("scenario requires rule %q, got %q", runner.RuleForage, t.Point.Rule)
	}
	opts := sp.options(t)
	resolved := opts.Forage.Normalized()
	if resolved == nil {
		r := runner.ForageSpec{}.WithDefaults()
		resolved = &r
	}
	disk := foodDisk(*resolved)
	iters := sp.Iterations
	if iters == 0 {
		// Equal time in the food phase and after exhaustion, so both
		// regimes contribute snapshots.
		iters = 2 * resolved.FoodSteps
	}
	every := sp.SnapshotEvery
	if every == 0 {
		every = iters / 16
		if every == 0 {
			every = 1
		}
	}
	type occSample struct {
		iter uint64
		occ  float64
	}
	var samples []occSample
	opts.Iterations, opts.SnapshotEvery = iters, every
	opts.DeltaFunc = func(s runner.Snapshot, d runner.Delta) {
		occ := 0
		for _, p := range disk {
			if d.Grid.Has(p) {
				occ++
			}
		}
		samples = append(samples, occSample{s.Iteration, float64(occ) / float64(len(disk))})
	}
	res, err := t.Arena.Compress(opts)
	if err != nil {
		return nil, err
	}
	m := Metrics{
		"alpha":     res.Alpha,
		"beta":      res.Beta,
		"perimeter": float64(res.Perimeter),
		"edges":     float64(res.Edges),
		"moves":     float64(res.Moves),
		"hole_free": b2f(res.HoleFree),
	}
	var foodSum, postSum float64
	var foodN, postN int
	for _, s := range samples {
		m[fmt.Sprintf("food_occ@%d", s.iter)] = s.occ
		if s.iter <= resolved.FoodSteps {
			foodSum += s.occ
			foodN++
		} else {
			postSum += s.occ
			postN++
		}
	}
	if len(samples) > 0 {
		m["food_occ"] = samples[len(samples)-1].occ
	}
	if foodN > 0 {
		m["food_occ_food_phase"] = foodSum / float64(foodN)
	}
	if postN > 0 {
		m["food_occ_post_food"] = postSum / float64(postN)
	}
	for _, s := range res.Snapshots {
		m[fmt.Sprintf("alpha@%d", s.Iteration)] = s.Alpha
		if s.Bias > 0 {
			m[fmt.Sprintf("bias@%d", s.Iteration)] = s.Bias
		}
	}
	return m, nil
}

// foodDisk enumerates the lattice sites within the schedule's radius (hex
// distance) of any food site — the region whose occupancy runForage
// tracks.
func foodDisk(f runner.ForageSpec) []lattice.Point {
	seen := make(map[lattice.Point]bool)
	var disk []lattice.Point
	for _, s := range f.Sites {
		for _, p := range lattice.Disk(s, f.Radius) {
			if !seen[p] {
				seen[p] = true
				disk = append(disk, p)
			}
		}
	}
	return disk
}

func runScaling(sp Spec, t Task) (Metrics, error) {
	if err := requireCompressionRule(t); err != nil {
		return nil, err
	}
	n := t.Point.N
	c, err := newSequential(sp, t)
	if err != nil {
		return nil, err
	}
	cap := sp.Iterations
	if cap == 0 {
		cap = 400 * uint64(n) * uint64(n) * uint64(n)
	}
	target := 2 * metrics.PMin(n)
	every := uint64(n*n/4 + 1)
	var done uint64
	for done < cap {
		k := min(every, cap-done)
		if err := runner.RunPolled(c, k, t.Interrupt); err != nil {
			return nil, err
		}
		done += k
		if c.Perimeter() <= target {
			break
		}
	}
	if c.Perimeter() > target {
		return nil, fmt.Errorf("hit cap %d without reaching 2·pmin (n=%d)", cap, n)
	}
	return Metrics{"iters_to_2pmin": float64(done)}, nil
}

func runAblation(sp Spec, t Task) (Metrics, error) {
	if err := requireChain(t); err != nil {
		return nil, err
	}
	ru := rule.CompressionVariant(t.Point.Lambda, false, true, true)
	c, err := t.Arena.Sequential(runner.EngineChain, runner.StartShape(t.Point.Start), t.Point.N, ru, t.Seed)
	if err != nil {
		return nil, err
	}
	budget := sp.Iterations
	if budget == 0 {
		budget = 8000
	}
	// Holes can heal, so the run is sampled every 200 steps rather than only
	// at the end. The rule does not keep configurations hole-free, so each
	// HoleFree call walks the grid.
	const batch = 200
	m := Metrics{"hole_formed": 0}
	for done := uint64(0); done < budget; {
		k := min(batch, budget-done)
		if err := runner.RunPolled(c, k, t.Interrupt); err != nil {
			return nil, err
		}
		done += k
		if !c.HoleFree() {
			m["hole_formed"] = 1
			m["steps_to_first_hole"] = float64(done)
			break
		}
	}
	return m, nil
}

func runBaseline(_ Spec, t Task) (Metrics, error) {
	if err := requireChain(t); err != nil {
		return nil, err
	}
	start, err := runner.NewStartConfig(runner.StartShape(t.Point.Start), t.Point.N, t.Seed)
	if err != nil {
		return nil, err
	}
	res, err := baseline.Run(start)
	if err != nil {
		return nil, err
	}
	return Metrics{
		"surface_moves": float64(res.Moves),
		"relocations":   float64(res.Relocations),
		"alpha":         metrics.Alpha(res.Final.Perimeter(), t.Point.N),
	}, nil
}

func runMixing(sp Spec, t Task) (Metrics, error) {
	n := t.Point.N
	c, err := newSequential(sp, t)
	if err != nil {
		return nil, err
	}
	burn := sp.Iterations
	if burn == 0 {
		burn = 250 * uint64(n) * uint64(n)
	}
	if err := runner.RunPolled(c, burn, t.Interrupt); err != nil {
		return nil, err
	}
	series := make([]float64, 10_000)
	for k := range series {
		// Thin by n activations per sample.
		if err := runner.RunPolled(c, uint64(n), t.Interrupt); err != nil {
			return nil, err
		}
		series[k] = float64(c.Perimeter())
	}
	return Metrics{
		"tau_perimeter": stats.IntegratedAutocorrTime(series),
		"ess":           stats.EffectiveSampleSize(series),
	}, nil
}

// requireChain rejects tasks whose engine axis asks a Metropolis-only
// scenario (the ablation runs its variant rule on chain M, the hexagon
// baseline runs no engine) for another engine.
func requireChain(t Task) error {
	if t.Point.Engine != EngineChain {
		return fmt.Errorf("scenario requires engine %q, got %q", EngineChain, t.Point.Engine)
	}
	return requireCompressionRule(t)
}

// requireCompressionRule rejects tasks asking a compression-specific
// scenario (2·pmin targets, hole ablations, the hexagon baseline) for
// another rule.
func requireCompressionRule(t Task) error {
	if t.Point.Rule != "" && t.Point.Rule != runner.RuleCompression {
		return fmt.Errorf("scenario requires rule %q, got %q", runner.RuleCompression, t.Point.Rule)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
