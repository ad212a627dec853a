package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"sops"
	"sops/internal/experiment"
	"sops/internal/stats"
)

// cmdSweep runs a declarative scenario sweep. With -dir the sweep journals
// every completed task and a rerun (or `sops resume`) picks up where an
// interrupt left off; Ctrl-C is a clean interrupt, not a loss of work.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sops sweep", flag.ExitOnError)
	var (
		scenario = fs.String("scenario", "compress", "workload from the registry (see `sops list-scenarios`)")
		lambdas  = fs.String("lambdas", "", "comma-separated λ values (scenario default if empty)")
		sizes    = fs.String("sizes", "", "comma-separated particle counts (scenario default if empty)")
		starts   = fs.String("starts", "", "comma-separated start shapes: line|spiral|random|tree")
		engines  = fs.String("engines", "", "comma-separated engines: chain|kmc|amoebot")
		rules    = fs.String("rules", "", "comma-separated local rules: compression|align|forage (scenario default if empty)")
		states   = fs.Int("states", 0, "payload state count for payload rules (0 = rule default)")
		forage   = forageFlags(fs)
		crash    = fs.String("crash", "", "comma-separated crash fractions (amoebot engine only)")
		reps     = fs.Int("reps", 3, "independent replications per sweep point")
		iters    = fs.Uint64("iters", 0, "per-run budget (0 = scenario default)")
		snapshot = fs.Uint64("snapshot-every", 0, "record snapshot metrics at this cadence (0 = off)")
		seed     = fs.Uint64("seed", 1, "base seed; task seeds derive from it deterministically")
		workers  = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		dir      = fs.String("dir", "", "experiment directory for the journal and result files (enables resume)")
		quiet    = fs.Bool("quiet", false, "suppress per-task progress on stderr")
	)
	fs.Parse(args)

	lams, err := parseFloats(*lambdas)
	if err != nil {
		return fmt.Errorf("-lambdas: %w", err)
	}
	ns, err := parseInts(*sizes)
	if err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	crashes, err := parseFloats(*crash)
	if err != nil {
		return fmt.Errorf("-crash: %w", err)
	}
	spec := sops.ExperimentSpec{
		Scenario:       *scenario,
		Lambdas:        lams,
		Sizes:          ns,
		Starts:         parseStrings(*starts),
		Engines:        parseStrings(*engines),
		Rules:          parseStrings(*rules),
		RuleStates:     *states,
		Forage:         forage(),
		CrashFractions: crashes,
		Reps:           *reps,
		Iterations:     *iters,
		SnapshotEvery:  *snapshot,
		Seed:           *seed,
	}
	return runSweep(spec, *dir, *workers, *quiet)
}

// cmdResume continues an interrupted sweep from its recorded spec.
func cmdResume(args []string) error {
	fs := flag.NewFlagSet("sops resume", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "experiment directory of the interrupted sweep (required)")
		workers = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		quiet   = fs.Bool("quiet", false, "suppress per-task progress on stderr")
	)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("resume requires -dir")
	}
	spec, err := sops.LoadExperimentSpec(*dir)
	if err != nil {
		return err
	}
	return runSweep(spec, *dir, *workers, *quiet)
}

func runSweep(spec sops.ExperimentSpec, dir string, workers int, quiet bool) error {
	// SIGINT/SIGTERM cancel the context: in-flight tasks journal and Run
	// returns with a resume hint instead of losing completed work. The
	// registration is released on the first signal so a second Ctrl-C gets
	// the default disposition and kills the process even if a long in-flight
	// task is still draining.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	opt := sops.ExperimentOptions{Dir: dir, Workers: workers}
	if !quiet {
		opt.Progress = os.Stderr
	}
	res, err := sops.RunExperiment(ctx, spec, opt)
	if err != nil {
		return err
	}
	printSummaries(os.Stdout, res)
	if dir != "" {
		fmt.Printf("# artifacts: %s/{%s,%s,%s,%s}\n", dir,
			experiment.SpecFile, experiment.JournalFile, experiment.ResultsJSONL, experiment.ResultsCSV)
	}
	return nil
}

// cmdListScenarios prints the workload registry with each scenario's
// normalized default axes.
func cmdListScenarios(args []string) error {
	fs := flag.NewFlagSet("sops list-scenarios", flag.ExitOnError)
	verbose := fs.Bool("v", false, "also print each scenario's default axes")
	fs.Parse(args)
	for _, info := range sops.Scenarios() {
		fmt.Printf("%-22s %s\n", info.Name, info.Description)
		if *verbose {
			spec, err := experiment.DefaultSpec(info.Name)
			if err != nil {
				return err
			}
			rules := spec.Rules
			if len(rules) == 0 {
				rules = []string{sops.RuleCompression}
			}
			fmt.Printf("%-22s   lambdas=%v sizes=%v starts=%v engines=%v rules=%v crash=%v\n",
				"", spec.Lambdas, spec.Sizes, spec.Starts, spec.Engines, rules, spec.CrashFractions)
		}
	}
	return nil
}

// printSummaries renders one row per (point, metric) in long format, then
// the scenario-specific footers: the phase regime legend when λ varies and
// the §3.7 power-law fit when the scaling metric spans several sizes.
func printSummaries(w *os.File, res *sops.ExperimentResult) {
	spec := res.Spec
	fmt.Fprintf(w, "# scenario=%s reps=%d seed=%d points=%d tasks=%d (run=%d replayed=%d failed=%d)\n",
		spec.Scenario, spec.Reps, spec.Seed, len(res.Summaries),
		res.TasksRun+res.TasksReplayed, res.TasksRun, res.TasksReplayed, res.Failures)
	fmt.Fprintf(w, "%8s %6s %7s %8s %12s %6s  %-22s %10s %9s %4s\n",
		"lambda", "n", "start", "engine", "rule", "crash", "metric", "mean", "±95%", "reps")
	for _, s := range res.Summaries {
		names := make([]string, 0, len(s.ByMetric))
		for name := range s.ByMetric {
			// Snapshot series (alpha@k) live in the artifact files; the
			// terminal table keeps the headline metrics.
			if !strings.Contains(name, "@") {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			m := s.ByMetric[name]
			ci := "—"
			if !math.IsInf(m.CI95(), 1) {
				ci = fmt.Sprintf("%.3g", m.CI95())
			}
			fmt.Fprintf(w, "%8.3g %6d %7s %8s %12s %6.3g  %-22s %10.4g %9s %4d\n",
				s.Point.Lambda, s.Point.N, s.Point.Start, s.Point.Engine, s.Point.Rule, s.Point.Crash,
				name, m.Mean, ci, m.N)
		}
		if s.Failures > 0 {
			fmt.Fprintf(w, "# %d failed runs at %s\n", s.Failures, s.Point)
		}
	}
	printRegimes(w, res)
	printScalingFit(w, res)
}

// printRegimes annotates a λ sweep with the proven phase boundaries.
func printRegimes(w *os.File, res *sops.ExperimentResult) {
	if len(res.Spec.Lambdas) < 2 {
		return
	}
	fmt.Fprintf(w, "# regimes: expansion proven for λ<%.4f, compression proven for λ>%.4f, transition open between\n",
		sops.ExpansionThreshold(), sops.CompressionThreshold())
}

// printScalingFit fits iterations-to-compression against n when the sweep
// produced that metric at ≥2 sizes (§3.7: conjectured between n³ and n⁴).
func printScalingFit(w *os.File, res *sops.ExperimentResult) {
	var xs, ys []float64
	for _, s := range res.Summaries {
		if m, ok := s.ByMetric["iters_to_2pmin"]; ok {
			xs = append(xs, float64(s.Point.N))
			ys = append(ys, m.Mean)
		}
	}
	if len(xs) < 2 || xs[0] == xs[len(xs)-1] {
		return
	}
	fit := stats.FitPower(xs, ys)
	fmt.Fprintf(w, "# power fit: iterations ≈ %.3g · n^%.2f (R²=%.3f)\n",
		math.Exp(fit.LogC), fit.Exponent, fit.R2)
	fmt.Fprintln(w, "# paper conjecture: exponent between 3 and 4 (~3.32 for 10× per doubling)")
}
