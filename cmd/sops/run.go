package main

import (
	"flag"
	"fmt"
	"os"

	"sops"
	"sops/internal/experiment"
)

// cmdRun executes one simulation run and prints its metrics — the old
// cmd/compress, with the engine selected by name for uniformity with sweep.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("sops run", flag.ExitOnError)
	var (
		n         = fs.Int("n", 100, "number of particles")
		lambda    = fs.Float64("lambda", 4, "bias parameter λ (>2+√2 compresses, <2.17 expands)")
		iters     = fs.Uint64("iters", 0, "iterations/activations (default 200·n²)")
		seed      = fs.Uint64("seed", 1, "random seed")
		start     = fs.String("start", "line", "starting shape: line|spiral|random|tree")
		engine    = fs.String("engine", experiment.EngineChain, "execution engine: chain|kmc|amoebot")
		ruleName  = fs.String("rule", sops.RuleCompression, "local rule: compression|align|forage")
		states    = fs.Int("states", 0, "payload state count for payload rules (0 = rule default; align defaults to 6 orientations)")
		forage    = forageFlags(fs)
		crash     = fs.Float64("crash", 0, "fraction of particles to crash-fail (amoebot engine only)")
		snapshots = fs.Int("snapshots", 5, "number of equally spaced snapshots to print")
		render    = fs.Bool("render", true, "print the final configuration")
		svgPath   = fs.String("svg", "", "write the final configuration as SVG to this file")
	)
	fs.Parse(args)

	opts, err := sops.Options{
		N:             *n,
		Lambda:        *lambda,
		Iterations:    *iters,
		Seed:          *seed,
		Start:         sops.StartShape(*start),
		Engine:        *engine,
		Rule:          *ruleName,
		RuleStates:    *states,
		Forage:        forage(),
		CrashFraction: *crash,
	}.Normalized()
	if err != nil {
		return err
	}
	if *snapshots > 0 {
		opts.SnapshotEvery = opts.Iterations / uint64(*snapshots)
	}

	res, err := sops.Compress(opts)
	if err != nil {
		return err
	}

	mode := "sequential chain M"
	switch *engine {
	case experiment.EngineKMC:
		mode = "rejection-free chain M (kmc)"
	case experiment.EngineAmoebot:
		mode = "distributed algorithm A"
	}
	if res.Rule != sops.RuleCompression {
		mode += " / rule=" + res.Rule
	}
	fmt.Printf("# %s: n=%d λ=%.3g start=%s seed=%d\n", mode, *n, *lambda, *start, *seed)
	fmt.Printf("# pmin=%d pmax=%d compression for λ>%.4f, expansion for λ<%.4f\n",
		sops.PMin(*n), sops.PMax(*n), sops.CompressionThreshold(), sops.ExpansionThreshold())
	if len(res.Snapshots) > 0 {
		fmt.Printf("%12s %10s %8s %8s %9s\n", "iteration", "perimeter", "alpha", "beta", "holefree")
		for _, s := range res.Snapshots {
			fmt.Printf("%12d %10d %8.3f %8.3f %9v\n", s.Iteration, s.Perimeter, s.Alpha, s.Beta, s.HoleFree)
		}
	}
	fmt.Printf("final: iterations=%d moves=%d perimeter=%d edges=%d triangles=%d α=%.3f β=%.3f",
		res.Iterations, res.Moves, res.Perimeter, res.Edges, res.Triangles, res.Alpha, res.Beta)
	if res.Rule != sops.RuleCompression {
		fmt.Printf(" rotations=%d energy=%d", res.Rotations, res.Energy)
		if res.Edges > 0 {
			fmt.Printf(" order=%.3f", float64(res.Energy)/float64(res.Edges))
		}
	}
	if *engine == experiment.EngineAmoebot {
		fmt.Printf(" rounds=%d crashed=%d", res.Rounds, len(res.Crashed))
	}
	fmt.Println()
	if *render {
		fmt.Println(res.Rendering)
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(res.SVG()), 0o644); err != nil {
			return fmt.Errorf("writing svg: %w", err)
		}
		fmt.Println("wrote", *svgPath)
	}
	return nil
}
