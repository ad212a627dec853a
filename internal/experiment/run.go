package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sops/internal/runner"
	"sops/internal/stats"
)

// RunOptions are execution knobs that cannot change results: where to
// journal, how many workers, where to stream progress.
type RunOptions struct {
	// Dir, when non-empty, is the experiment directory: the journal, the
	// recorded spec, and the emitted result files live there, and a rerun
	// with the same spec resumes from it. Empty disables persistence.
	Dir string
	// Workers is the worker-pool size; values < 1 mean GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per completed task.
	Progress io.Writer
	// OnTask, when non-nil, is called once per task executed by this
	// invocation (journal replays excluded), from the single aggregation
	// goroutine, in completion order. err is the task's failure, nil on
	// success. The `sops serve` job manager hooks progress tracking here.
	OnTask func(t Task, m Metrics, err error)
	// OnSnapshot, when non-nil, is injected into every dispatched task as
	// Task.OnSnapshot: scenarios that take mid-run snapshots
	// (Spec.SnapshotEvery > 0) deliver each frame here live, concurrently
	// from worker goroutines. The `sops serve` streaming endpoint hooks
	// here.
	OnSnapshot func(t Task, s runner.Snapshot)
}

// PointSummary aggregates all replications at one sweep point.
type PointSummary struct {
	Point Point `json:"point"`
	// ByMetric holds a summary per metric name, folded in rep order so the
	// aggregate is independent of scheduling.
	ByMetric map[string]stats.Summary `json:"metrics"`
	// Failures counts replications that returned an error.
	Failures int `json:"failures"`
}

// Mean returns the mean of the named metric at this point, or an error if
// the metric was never recorded.
func (p PointSummary) Mean(name string) (float64, error) {
	s, ok := p.ByMetric[name]
	if !ok {
		return 0, fmt.Errorf("experiment: metric %q not recorded at %s", name, p.Point)
	}
	return s.Mean, nil
}

// Result reports a completed experiment.
type Result struct {
	// Spec is the normalized spec the experiment ran with.
	Spec Spec `json:"spec"`
	// Summaries holds one entry per sweep point, in point order.
	Summaries []PointSummary `json:"summaries"`
	// TasksRun counts tasks executed by this invocation.
	TasksRun int `json:"tasks_run"`
	// TasksReplayed counts tasks restored from the journal.
	TasksReplayed int `json:"tasks_replayed"`
	// Failures counts failed tasks across the whole grid.
	Failures int `json:"failures"`
	// ElapsedSec is this invocation's wall-clock time.
	ElapsedSec float64 `json:"elapsed_sec"`
}

// outcome is the in-memory record of one finished task.
type outcome struct {
	done    bool
	metrics Metrics
	errMsg  string
}

// Run executes the experiment described by spec. Tasks fan out over a
// worker pool; with RunOptions.Dir set, every finished task is journaled and
// a rerun (or `sops resume`) skips journaled (point, rep) pairs, replaying
// their recorded metrics instead. Cancelling ctx stops dispatching new
// tasks, interrupts in-flight tasks within runner.PollEvery iterations
// (dropping them unjournaled, to rerun on resume), lets the rest journal,
// and returns an error wrapping ctx.Err(); the final summaries of
// a resumed run are byte-identical to an uninterrupted run with the same
// spec.
func Run(ctx context.Context, spec Spec, opt RunOptions) (*Result, error) {
	started := time.Now()
	sc, err := lookup(spec.Scenario)
	if err != nil {
		return nil, err
	}
	spec, err = spec.normalized(sc)
	if err != nil {
		return nil, err
	}
	points := spec.points()
	total := len(points) * spec.Reps
	table := make([][]outcome, len(points))
	for i := range table {
		table[i] = make([]outcome, spec.Reps)
	}

	res := &Result{Spec: spec}
	var j *journal
	if opt.Dir != "" {
		j, err = openJournal(opt.Dir, spec)
		if err != nil {
			return nil, err
		}
		// Every line is synced by append, so the close error carries no
		// journaled data; dropping it is deliberate.
		defer func() { _ = j.close() }()
		for _, e := range j.entries {
			if e.Point < 0 || e.Point >= len(points) || e.Rep < 0 || e.Rep >= spec.Reps {
				continue // journal from a larger, since-shrunk grid — impossible after the spec check, but harmless
			}
			if e.Seed != taskSeed(spec.Seed, e.Point, e.Rep) {
				return nil, fmt.Errorf("experiment: journal entry (point %d, rep %d) has seed %d, want %d — journal does not match spec",
					e.Point, e.Rep, e.Seed, taskSeed(spec.Seed, e.Point, e.Rep))
			}
			if !table[e.Point][e.Rep].done {
				res.TasksReplayed++
			}
			table[e.Point][e.Rep] = outcome{done: true, metrics: e.Metrics, errMsg: e.Error}
		}
	}

	var pending []Task
	for pi := range points {
		for r := 0; r < spec.Reps; r++ {
			if !table[pi][r].done {
				t := Task{
					Point:      points[pi],
					PointIndex: pi,
					Rep:        r,
					Seed:       taskSeed(spec.Seed, pi, r),
				}
				if opt.OnSnapshot != nil {
					id := t // the identity fields only; avoids a self-referential closure
					t.OnSnapshot = func(s runner.Snapshot) { opt.OnSnapshot(id, s) }
				}
				t.Interrupt = func() bool { return ctx.Err() != nil }
				pending = append(pending, t)
			}
		}
	}
	if opt.Progress != nil && res.TasksReplayed > 0 {
		fmt.Fprintf(opt.Progress, "resuming: %d/%d tasks already journaled\n", res.TasksReplayed, total)
	}

	workers := opt.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) && len(pending) > 0 {
		workers = len(pending)
	}

	type taskDone struct {
		task    Task
		metrics Metrics
		err     error
	}
	jobs := make(chan Task)
	results := make(chan taskDone)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One arena per worker: engines, grids, and result buffers are
			// reused across every task this goroutine executes, so the
			// steady-state sweep loop allocates per task only what the
			// metrics bag needs (TestRunTaskAllocations bounds it).
			arena := runner.NewArena()
			for t := range jobs {
				t.Arena = arena
				m, err := sc.Run(spec, t)
				results <- taskDone{task: t, metrics: m, err: err}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, t := range pending {
			select {
			case jobs <- t:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	var journalErr error
	for d := range results {
		if errors.Is(d.err, runner.ErrInterrupted) {
			// The cancelled context interrupted this task mid-run: it is
			// not an outcome. Dropping it unjournaled (and uncounted) makes
			// it rerun on resume, keeping resumed summaries byte-identical
			// to an uninterrupted sweep.
			continue
		}
		o := outcome{done: true, metrics: d.metrics}
		if d.err != nil {
			o.errMsg = d.err.Error()
			o.metrics = nil
		}
		table[d.task.PointIndex][d.task.Rep] = o
		res.TasksRun++
		if j != nil && journalErr == nil {
			journalErr = j.append(journalEntry{
				Point:   d.task.PointIndex,
				Rep:     d.task.Rep,
				Seed:    d.task.Seed,
				Metrics: o.metrics,
				Error:   o.errMsg,
			})
		}
		if opt.OnTask != nil {
			opt.OnTask(d.task, d.metrics, d.err)
		}
		if opt.Progress != nil {
			status := "ok"
			if d.err != nil {
				status = "FAIL: " + d.err.Error()
			}
			fmt.Fprintf(opt.Progress, "[%d/%d] %s rep=%d %s\n",
				res.TasksReplayed+res.TasksRun, total, d.task.Point, d.task.Rep, status)
		}
	}
	if journalErr != nil {
		return nil, fmt.Errorf("experiment: journaling: %w", journalErr)
	}
	completed := res.TasksReplayed + res.TasksRun
	if err := ctx.Err(); err != nil && completed < total {
		if opt.Dir != "" {
			return nil, fmt.Errorf("experiment: interrupted after %d/%d tasks; rerun with the same spec (or `sops resume -dir %s`) to continue: %w",
				completed, total, opt.Dir, err)
		}
		return nil, fmt.Errorf("experiment: interrupted after %d/%d tasks (no -dir, progress lost): %w", completed, total, err)
	}

	res.Summaries = summarize(points, spec.Reps, table)
	for _, s := range res.Summaries {
		res.Failures += s.Failures
	}
	res.ElapsedSec = time.Since(started).Seconds()
	if opt.Dir != "" {
		if err := emit(opt.Dir, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// summarize folds the outcome table into per-point summaries. Samples are
// appended in rep order, which fixes the floating-point fold order and makes
// the output independent of execution interleaving.
func summarize(points []Point, reps int, table [][]outcome) []PointSummary {
	out := make([]PointSummary, len(points))
	for pi, p := range points {
		ps := PointSummary{Point: p, ByMetric: map[string]stats.Summary{}}
		samples := map[string][]float64{}
		for r := 0; r < reps; r++ {
			o := table[pi][r]
			if o.errMsg != "" {
				ps.Failures++
				continue
			}
			for name, v := range o.metrics {
				samples[name] = append(samples[name], v)
			}
		}
		for name, xs := range samples {
			ps.ByMetric[name] = stats.Summarize(xs)
		}
		out[pi] = ps
	}
	return out
}

// BenchFile returns the BENCH_*.json artifact name for a scenario.
func BenchFile(scenario string) string {
	return "BENCH_" + strings.ReplaceAll(scenario, "-", "_") + ".json"
}

// emit writes the machine-readable artifacts: results.jsonl (one
// PointSummary per line), results.csv (one point×metric row per line), and
// the BENCH_*.json summary for the perf-trajectory tooling.
func emit(dir string, res *Result) error {
	var jsonl strings.Builder
	for _, s := range res.Summaries {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		jsonl.Write(line)
		jsonl.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, ResultsJSONL), []byte(jsonl.String()), 0o644); err != nil {
		return err
	}

	var csv strings.Builder
	csv.WriteString("scenario,lambda,n,start,engine,rule,crash,metric,samples,mean,stddev,ci95,min,median,max,failures\n")
	for _, s := range res.Summaries {
		if len(s.ByMetric) == 0 {
			// A point whose every replication failed still gets a row, so
			// the CSV grid and its failures column never silently shrink.
			fmt.Fprintf(&csv, "%s,%s,%d,%s,%s,%s,%s,,0,,,,,,,%d\n",
				res.Spec.Scenario, ff(s.Point.Lambda), s.Point.N, s.Point.Start, s.Point.Engine, s.Point.Rule, ff(s.Point.Crash),
				s.Failures)
			continue
		}
		names := make([]string, 0, len(s.ByMetric))
		for name := range s.ByMetric {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := s.ByMetric[name]
			fmt.Fprintf(&csv, "%s,%s,%d,%s,%s,%s,%s,%s,%d,%s,%s,%s,%s,%s,%s,%d\n",
				res.Spec.Scenario, ff(s.Point.Lambda), s.Point.N, s.Point.Start, s.Point.Engine, s.Point.Rule, ff(s.Point.Crash),
				name, m.N, ff(m.Mean), ff(m.StdDev), ff(m.CI95()), ff(m.Min), ff(m.Median), ff(m.Max), s.Failures)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ResultsCSV), []byte(csv.String()), 0o644); err != nil {
		return err
	}

	bench, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, BenchFile(res.Spec.Scenario)), append(bench, '\n'), 0o644)
}

// ff formats a float for CSV: shortest round-trip representation.
func ff(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
