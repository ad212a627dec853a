// Command sops is the unified experiment CLI: every paper figure and every
// registered scenario is one command with uniform flags.
//
// Usage:
//
//	sops run            one simulation run (chain M, rejection-free kmc, or amoebot A)
//	sops sweep          declarative, resumable scenario sweep
//	sops resume         continue an interrupted sweep from its directory
//	sops serve          HTTP job manager: submit sweeps/runs, stream snapshots, cached results
//	sops replay         re-render a completed job from its stored frames
//	sops figures        regenerate the data behind the paper's figures
//	sops census         exact enumeration tables (Ω*, perimeter census)
//	sops list-scenarios print the workload registry
//
// Examples:
//
//	sops run -n 100 -lambda 4 -render
//	sops sweep -scenario phase -sizes 100 -reps 5 -dir out/phase
//	sops resume -dir out/phase
//	sops serve -addr :8080 -dir sops-store
//	sops figures -fig 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sops"
)

// commands is the subcommand dispatch table; dispatch resolves names against
// it so tests can exercise routing without spawning the binary.
var commands = map[string]func([]string) error{
	"run":            cmdRun,
	"sweep":          cmdSweep,
	"resume":         cmdResume,
	"serve":          cmdServe,
	"replay":         cmdReplay,
	"figures":        cmdFigures,
	"census":         cmdCensus,
	"list-scenarios": cmdListScenarios,
}

// dispatch resolves a subcommand name; ok is false for unknown names.
func dispatch(cmd string) (fn func([]string) error, ok bool) {
	fn, ok = commands[cmd]
	return fn, ok
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	if cmd == "help" || cmd == "-h" || cmd == "--help" {
		usage(os.Stdout)
		return
	}
	fn, ok := dispatch(cmd)
	if !ok {
		fmt.Fprintf(os.Stderr, "sops: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err := fn(args); err != nil {
		fmt.Fprintln(os.Stderr, "sops:", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `sops — compression in self-organizing particle systems

usage: sops <command> [flags]

commands:
  run             one simulation run (-engine chain|kmc|amoebot)
  sweep           declarative scenario sweep; resumable with -dir
  resume          continue an interrupted sweep from its directory
  serve           HTTP job manager: submit sweeps/runs, stream NDJSON
                  snapshots, serve cached results by spec digest
  replay          re-render a completed job byte-deterministically from its
                  stored frames (sops replay -addr URL -o DIR JOB)
  figures         regenerate the data behind the paper's figures
  census          exact enumeration tables (Ω*, perimeter census, N50)
  list-scenarios  print the workload registry and per-scenario defaults

run 'sops <command> -h' for the command's flags.
`)
}

// forageFlags registers the -forage-* flags of run and sweep on fs. The
// returned function assembles the parsed flags into a forage schedule, nil
// when none is set.
func forageFlags(fs *flag.FlagSet) func() *sops.ForageSpec {
	low := fs.Float64("forage-lambda-low", 0, "forage rule: bias λ_low away from food and after exhaustion (0 = default 1)")
	radius := fs.Int("forage-radius", 0, "forage rule: food-disk radius in hex distance (0 = default 4)")
	food := fs.Uint64("forage-food", 0, "forage rule: iterations until the food is exhausted (0 = default 60000)")
	epoch := fs.Uint64("forage-epoch", 0, "forage rule: bias epoch length in iterations (0 = default 1024)")
	return func() *sops.ForageSpec {
		if *low == 0 && *radius == 0 && *food == 0 && *epoch == 0 {
			return nil
		}
		return &sops.ForageSpec{LambdaLow: *low, Radius: *radius, FoodSteps: *food, Epoch: *epoch}
	}
}

// parseFloats parses a comma-separated float list ("" → nil).
func parseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseInts parses a comma-separated int list ("" → nil).
func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseStrings parses a comma-separated string list ("" → nil).
func parseStrings(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, tok := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(tok))
	}
	return out
}
