// Command bench is the repository benchmark: four workloads that cover the
// system's user-visible paths — a chain sweep, a kMC equilibrium sample, the
// distributed Algorithm A, and a mixed client load on `sops serve` — each
// measured end to end with its outputs checked, plus a traced run that
// times every layer from outside by wrapping calls into its public
// functions. See README.md for the workloads, metrics and bounds.
//
//	bash bench/run.sh -seed 1 -out .bench_build/out       all workloads, each in its own process
//	bash bench/run.sh -workload kmc-spiral -seed 3        one workload, in this process
//	bash bench/run.sh -trace -seed 1 -out .bench_build/out  per-layer metrics and trace.json
//	bash bench/run.sh -compare A/results.json B/results.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// loadWorkers caps load generation: sweep workers per experiment.Run,
	// and closed-loop HTTP clients on serve-mixed. It is fixed so results
	// from machines with more cores stay comparable, and recorded in the
	// stamp.
	loadWorkers = 2
	// minRepetitions is the fewest repetitions a run makes. Each repetition
	// sets its workload up afresh and then measures it; setup_s is the
	// median of the set-ups.
	minRepetitions = 5
	// runSeconds is the measuring time of one run: the run_seconds of
	// BENCHMARK.json, which the bounds were set at. The benchmark's caller
	// passes it as -seconds; the flag exists for that interface.
	runSeconds = 30
)

// runConfig is one run's inputs: the seed every generated input derives
// from, the measuring budget, and the mode.
type runConfig struct {
	seed   uint64
	budget time.Duration
	trace  bool
	// small shrinks every workload for the package test.
	small bool
}

type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*report, error)
}

// workloads lists the benchmark's workloads in run order; BENCHMARK.json
// names the same four, and the test keeps the two in step.
var workloads = []workload{
	{"sweep-line", sweepLine.run},
	{"kmc-spiral", kmcSpiral.run},
	{"amoebot-line", amoebotLine.run},
	{"serve-mixed", serveWorkload{}.run},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload, in this process (default: all, each in its own process)")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", runSeconds, "measuring time of one run of one workload; the bounds hold only at the default")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics instead of end-to-end ones, and trace.json")
	out := fs.String("out", "", "directory for results.json (and trace.json when tracing)")
	runs := fs.Int("runs", 1, "runs per workload when running all, with seeds seed, seed+1, …")
	compareMode := fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
	if err := fs.Parse(foldBoolArgs(args)); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *trace}
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		return runOne(ctx, os.Stdout, w, cfg, *out)
	}
	return runAll(ctx, cfg, *runs, *out)
}

// foldBoolArgs rewrites "-trace 0" and "-trace 1" (the documented
// "--trace <0|1>" form) as "-trace=0" and "-trace=1", since the flag package
// reads a separate word after a boolean flag as a positional argument.
func foldBoolArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// runOne runs one workload in this process and prints its metric lines,
// then, as the last line, the JSON result: correct, attempted, failed, and
// the metrics of the mode. It exits non-zero if any check failed.
func runOne(ctx context.Context, stdout io.Writer, w workload, cfg runConfig, out string) int {
	fmt.Fprintln(stdout, stampLine())
	r, err := w.run(ctx, cfg)
	if err != nil {
		r.check("run", false, "%v", err)
	}
	r.finish()
	for _, line := range r.lines() {
		fmt.Fprintln(stdout, line)
	}
	if out != "" {
		if werr := writeFiles(out, []runRecord{r.runRecord}, cfg); werr != nil {
			fmt.Fprintln(os.Stderr, "bench:", werr)
			return 1
		}
	}
	last, jerr := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "bench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(last))
	if err != nil || !r.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload runs times, each run in a child process of
// this binary so that each workload's peak RSS is its own, and gathers the
// children's records into out.
func runAll(ctx context.Context, cfg runConfig, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var parts string
	if out != "" {
		if parts, err = os.MkdirTemp("", "sopsbench-parts-*"); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer os.RemoveAll(parts)
	}
	status := 0
	var records []runRecord
	for _, w := range workloads {
		for i := range runs {
			seed := cfg.seed + uint64(i)
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", formatValue(cfg.budget.Seconds()), "-trace=" + strconv.FormatBool(cfg.trace)}
			part := ""
			if parts != "" {
				part = filepath.Join(parts, fmt.Sprintf("%s-%d", w.name, seed))
				args = append(args, "-out", part)
			}
			// A run measures for the budget after its set-up; the limit only
			// stops a hung child.
			cctx, cancel := context.WithTimeout(ctx, 10*cfg.budget+2*time.Minute)
			cmd := exec.CommandContext(cctx, self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
			cmd.WaitDelay = 10 * time.Second
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
				status = 1
			}
			cancel()
			if part == "" {
				continue
			}
			rs, err := readRecords(part)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
				status = 1
				continue
			}
			records = append(records, rs...)
		}
		if ctx.Err() != nil {
			return 1
		}
	}
	if out != "" {
		if err := writeFiles(out, records, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("wrote %s (%d runs)\n", filepath.Join(out, resultsFile), len(records))
	}
	return status
}

const (
	resultsFile = "results.json"
	traceFile   = "trace.json"
)

// stamp records the machine and settings a results file was measured with.
type stamp struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	CPUModel    string  `json:"cpu_model"`
	GoVersion   string  `json:"go_version"`
	LoadWorkers int     `json:"load_workers"`
	Seconds     float64 `json:"seconds"`
}

func newStamp(budget time.Duration) stamp {
	return stamp{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		LoadWorkers: loadWorkers,
		Seconds:     budget.Seconds(),
	}
}

func stampLine() string {
	s := newStamp(0)
	return fmt.Sprintf("# gomaxprocs=%d num_cpu=%d cpu=%q go=%s load_workers=%d",
		s.GOMAXPROCS, s.NumCPU, s.CPUModel, s.GoVersion, s.LoadWorkers)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture where there is none.
func cpuModel() string {
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

type resultsDoc struct {
	Stamp stamp       `json:"stamp"`
	Runs  []runRecord `json:"runs"`
}

// writeFiles writes results.json — every run without its trace — and, when
// any run was traced, trace.json with the traced runs in full.
func writeFiles(dir string, records []runRecord, cfg runConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st := newStamp(cfg.budget)
	var traced []runRecord
	plain := make([]runRecord, len(records))
	for i, r := range records {
		if r.Trace {
			traced = append(traced, r)
		}
		r.Spans, r.SpanSummary = nil, nil
		plain[i] = r
	}
	if err := writeJSON(filepath.Join(dir, resultsFile), resultsDoc{st, plain}); err != nil {
		return err
	}
	if len(traced) == 0 {
		return nil
	}
	return writeJSON(filepath.Join(dir, traceFile), resultsDoc{st, traced})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRecords reads a child's runs back, taking the traced ones from
// trace.json so their spans survive.
func readRecords(dir string) ([]runRecord, error) {
	var doc resultsDoc
	raw, err := os.ReadFile(filepath.Join(dir, traceFile))
	if errors.Is(err, os.ErrNotExist) {
		raw, err = os.ReadFile(filepath.Join(dir, resultsFile))
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	return doc.Runs, nil
}
