package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"sops/internal/amoebot"
	"sops/internal/config"
	"sops/internal/experiment"
	"sops/internal/kmc"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/runner"
	"sops/internal/viz"
)

// sweepWorkload is a simulation workload: one small experiment.Spec (a
// "batch") run back to back through experiment.Run until the time budget is
// spent. Every batch runs the identical spec, so every batch must emit the
// identical results.jsonl — the determinism contract is itself a check.
type sweepWorkload struct {
	name string
	// spec builds the batch from the run's seed; small shrinks it for tests.
	spec func(seed uint64, small bool) experiment.Spec
	// check asserts the workload's output property on the batch summaries.
	check func(r *report, spec experiment.Spec, sums []experiment.PointSummary)
}

func (w sweepWorkload) run(ctx context.Context, cfg runConfig) (*report, error) {
	r := newReport(w.name, cfg.seed, cfg.trace)
	spec := w.spec(cfg.seed, cfg.small)
	if cfg.trace {
		return r, w.traced(ctx, cfg, spec, r)
	}
	a, err := newBatchRun()
	if err != nil {
		return r, err
	}
	// A temporary directory left behind changes no result; ignore the error.
	defer func() { _ = a.close() }()
	// Each repetition sets the workload up afresh, then runs one batch, so
	// the set-ups are spread over the whole run like the batches.
	var setups []float64
	deadline := time.Now().Add(cfg.budget)
	for last := time.Duration(0); another(a.n, minRepetitions, last, deadline); {
		start := time.Now()
		setup, err := sweepSetup(ctx, spec)
		if err != nil {
			return r, err
		}
		setups = append(setups, setup)
		if err := a.batch(ctx, spec, true, r); err != nil {
			return r, err
		}
		last = time.Since(start)
	}
	w.checkOutputs(r, spec, a)
	// Every batch has the same inputs: estimate the batch's time and each of
	// its results' from the repetitions, then take the median across the
	// results.
	var results []float64
	for _, xs := range a.results {
		results = append(results, best(xs))
	}
	steps := float64(len(a.replay)) * float64(spec.Iterations)
	r.set("setup_s", median(setups), "s")
	r.set("ops_per_s", steps/best(a.cold)*1000, "1/s")
	r.set("cold_ms_p50", median(results), "ms")
	r.set("peak_rss_mb", peakRSSMB(), "MiB")
	r.Samples = map[string]int{"cold_ms": len(results), "repetitions": len(a.cold)}
	return r, nil
}

// sweepSetup prepares the workload once — the spec normalized, a fresh
// experiment directory, and one warm-up operation: a single task of the
// batch's first point — and returns the time it took in seconds.
func sweepSetup(ctx context.Context, spec experiment.Spec) (float64, error) {
	warm := spec
	warm.Lambdas, warm.Reps = spec.Lambdas[:1], 1
	start := time.Now()
	if _, err := experiment.Normalize(spec); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp("", "sopsbench-setup-*")
	if err != nil {
		return 0, err
	}
	_, err = experiment.Run(ctx, warm, experiment.RunOptions{Dir: dir, Workers: loadWorkers})
	took := time.Since(start).Seconds()
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		return 0, fmt.Errorf("warm-up batch: %w", err)
	}
	return took, nil
}

// batchRun is what a run's batches observed.
type batchRun struct {
	work             string      // parent of the batches' experiment directories
	n                int         // batches run
	cold, cached     []float64   // ms per journaled batch
	results          [][]float64 // [i][batch]: ms from submission to the i-th task result
	coldWall         time.Duration
	tasks            int
	bareWall         time.Duration // batches run without a directory
	bareTasks        int
	holed            int // tasks whose final configuration had a hole
	nondeterministic int // batches whose results.jsonl differed from the first
	resumeMismatch   int // cached reruns that ran tasks or changed results.jsonl

	// From the first journaled batch (every batch is identical).
	output     []byte
	sums       []experiment.PointSummary
	storeBytes int64
	replay     []replayTask
}

func newBatchRun() (*batchRun, error) {
	work, err := os.MkdirTemp("", "sopsbench-sweep-*")
	return &batchRun{work: work}, err
}

func (br *batchRun) close() error { return os.RemoveAll(br.work) }

// batch runs one batch. With persist it journals to a fresh directory,
// which is then rerun as a finished sweep — the cached path, answered from
// the journal; without, it runs with no directory at all.
func (br *batchRun) batch(ctx context.Context, spec experiment.Spec, persist bool, r *report) error {
	b := br.n
	br.n++
	dir := ""
	if persist {
		dir = filepath.Join(br.work, strconv.Itoa(b))
	}
	var results []float64
	start := time.Now()
	res, err := experiment.Run(ctx, spec, experiment.RunOptions{
		Dir:     dir,
		Workers: loadWorkers,
		OnTask: func(_ experiment.Task, m experiment.Metrics, err error) {
			results = append(results, ms(time.Since(start)))
			r.op(err == nil)
			if err == nil && m["hole_free"] != 1 {
				br.holed++
			}
		},
	})
	cold := time.Since(start)
	if err != nil {
		return fmt.Errorf("batch %d: %w", b, err)
	}
	if !persist {
		br.bareWall += cold
		br.bareTasks += res.TasksRun
		return nil
	}
	br.cold = append(br.cold, ms(cold))
	if br.results == nil {
		br.results = make([][]float64, len(results))
	}
	for i, t := range results {
		br.results[i] = append(br.results[i], t)
	}
	br.coldWall += cold
	br.tasks += res.TasksRun
	out, err := os.ReadFile(filepath.Join(dir, experiment.ResultsJSONL))
	if err != nil {
		return err
	}
	if br.output == nil {
		br.output, br.sums = out, res.Summaries
		if br.storeBytes, err = dirBytes(dir); err != nil {
			return err
		}
		if br.replay, err = readReplayTasks(dir, spec.Iterations); err != nil {
			return err
		}
	} else if !bytes.Equal(out, br.output) {
		br.nondeterministic++
	}

	start = time.Now()
	again, err := experiment.Run(ctx, spec, experiment.RunOptions{Dir: dir, Workers: loadWorkers})
	cached := time.Since(start)
	r.op(err == nil)
	if err != nil {
		return fmt.Errorf("batch %d rerun: %w", b, err)
	}
	br.cached = append(br.cached, ms(cached))
	if rerun, err := os.ReadFile(filepath.Join(dir, experiment.ResultsJSONL)); err != nil || again.TasksRun != 0 || !bytes.Equal(rerun, out) {
		br.resumeMismatch++
	}
	return os.RemoveAll(dir)
}

// checkOutputs runs the checks every sweep workload shares, then the
// workload's own.
func (w sweepWorkload) checkOutputs(r *report, spec experiment.Spec, a *batchRun) {
	sum := sha256.Sum256(a.output)
	r.OutputSHA256 = hex.EncodeToString(sum[:])
	r.check("hole_free", a.holed == 0, "%d of %d tasks ended with a hole (Lemma 3.2: none may)", a.holed, a.tasks)
	r.check("deterministic", a.nondeterministic == 0, "%d of %d batches differed from the first batch's results.jsonl", a.nondeterministic, len(a.cold))
	r.check("cached_identical", a.resumeMismatch == 0, "%d of %d reruns of a finished sweep ran tasks or changed results.jsonl", a.resumeMismatch, len(a.cached))
	w.check(r, spec, a.sums)
}

// meanAlpha returns the mean α at each sweep point.
func meanAlpha(sums []experiment.PointSummary) []float64 {
	out := make([]float64, len(sums))
	for i, s := range sums {
		out[i] = s.ByMetric["alpha"].Mean
	}
	return out
}

// replayTask is one journaled task: the traced replay drives exactly this
// (point, seed, budget) through the runner's layers and must reproduce the
// journaled trajectory.
type replayTask struct {
	point     experiment.Point
	seed      uint64
	iters     uint64
	moves     float64
	perimeter float64
}

// readReplayTasks reads an experiment directory's task list: points from
// results.jsonl (in point order), seeds and outcomes from the journal.
func readReplayTasks(dir string, iters uint64) ([]replayTask, error) {
	var points []experiment.Point
	if err := eachLine(filepath.Join(dir, experiment.ResultsJSONL), func(line []byte) error {
		var s experiment.PointSummary
		if err := json.Unmarshal(line, &s); err != nil {
			return err
		}
		points = append(points, s.Point)
		return nil
	}); err != nil {
		return nil, err
	}
	var tasks []replayTask
	if err := eachLine(filepath.Join(dir, experiment.JournalFile), func(line []byte) error {
		var e struct {
			Point   int                `json:"point"`
			Seed    uint64             `json:"seed"`
			Metrics experiment.Metrics `json:"metrics"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.Point < 0 || e.Point >= len(points) {
			return fmt.Errorf("journal names point %d of %d", e.Point, len(points))
		}
		tasks = append(tasks, replayTask{
			point: points[e.Point], seed: e.Seed, iters: iters,
			moves: e.Metrics["moves"], perimeter: e.Metrics["perimeter"],
		})
		return nil
	}); err != nil {
		return nil, err
	}
	// The journal is in completion order; replay in a fixed one.
	slices.SortFunc(tasks, func(a, b replayTask) int {
		if c := cmp.Compare(a.point.Lambda, b.point.Lambda); c != 0 {
			return c
		}
		return cmp.Compare(a.seed, b.seed)
	})
	return tasks, nil
}

func eachLine(path string, fn func([]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if err := fn(sc.Bytes()); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return sc.Err()
}

// replayRun is what a replay phase observed.
type replayRun struct {
	tasks      int
	taskTime   time.Duration // summed over tasks, as each worker timed them
	mismatches int           // tasks whose moves or perimeter differed from the journal
}

func (rr replayRun) msPerTask() float64 { return ms(rr.taskTime) / float64(rr.tasks) }

// replayPass replays the task list once on loadWorkers goroutines, each
// with a fresh arena as experiment.Run gives every worker of every sweep.
func replayPass(ctx context.Context, tasks []replayTask, tr *tracer, pass int, rr *replayRun) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for range loadWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := runner.NewArena()
			var pts []lattice.Point
			for i := range jobs {
				start := time.Now()
				ok, err := replayOne(arena, &pts, tasks[i], tr, fmt.Sprintf("p%d.t%d", pass, i))
				d := time.Since(start)
				mu.Lock()
				rr.tasks++
				rr.taskTime += d
				if !ok {
					rr.mismatches++
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for i := range tasks {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// replayOne runs one task through the layers experiment.Run would use —
// for chain and kMC the worker's runner.Arena, for amoebot the runner's
// plain path — recording a span around each layer call. It reports whether
// the trajectory matched the journal.
func replayOne(a *runner.Arena, pts *[]lattice.Point, t replayTask, tr *tracer, id string) (bool, error) {
	root := tr.begin(id, 0, "task")
	defer tr.end(root, nil)
	if t.point.Engine == runner.EngineAmoebot {
		return replayAmoebot(t, tr, id, root)
	}

	sp := tr.begin(id, root, "runner.rule")
	ru, err := a.Rule(t.point.Rule, t.point.Lambda, 0)
	tr.end(sp, nil)
	if err != nil {
		return false, err
	}
	sp = tr.begin(id, root, "runner.build")
	c, err := a.Sequential(t.point.Engine, runner.StartShape(t.point.Start), t.point.N, ru, t.seed)
	tr.end(sp, nil)
	if err != nil {
		return false, err
	}

	sp = tr.begin(id, root, "engine.run")
	c.Run(t.iters)
	steps, moves := c.Steps(), c.Accepted()
	events := steps // every Metropolis proposal is an event
	if k, ok := c.(interface{ Events() uint64 }); ok {
		events = k.Events()
	}
	tr.end(sp, map[string]int64{"steps": int64(steps), "moves": int64(moves), "events": int64(events)})

	// The finish Arena.Compress performs on every task.
	sp = tr.begin(id, root, "runner.measure")
	perimeter := c.Perimeter()
	_, _, _ = c.HoleFree(), c.Edges(), c.Energy()
	g := c.Grid()
	_ = g.Triangles()
	*pts = g.AppendPoints((*pts)[:0])
	tr.end(sp, nil)
	return float64(moves) == t.moves && float64(perimeter) == t.perimeter, nil
}

// replayAmoebot mirrors the runner's distributed path (the non-arena
// fallback every amoebot task takes) through the amoebot package's API.
func replayAmoebot(t replayTask, tr *tracer, id string, root int) (bool, error) {
	sp := tr.begin(id, root, "runner.rule")
	ru, err := runner.NewRule(t.point.Rule, t.point.Lambda, 0, nil)
	tr.end(sp, nil)
	if err != nil {
		return false, err
	}
	sp = tr.begin(id, root, "runner.build")
	start, err := runner.NewStartConfig(runner.StartShape(t.point.Start), t.point.N, t.seed)
	if err != nil {
		return false, err
	}
	proto, err := amoebot.NewMetropolis(ru)
	if err != nil {
		return false, err
	}
	w, err := amoebot.NewWorld(start)
	if err != nil {
		return false, err
	}
	s := amoebot.NewPoissonScheduler(w, proto, t.seed)
	tr.end(sp, nil)

	sp = tr.begin(id, root, "engine.run")
	s.RunActivations(t.iters)
	acts, moves := w.Activations(), w.Moves()
	tr.end(sp, map[string]int64{"steps": int64(acts), "moves": int64(moves), "events": int64(acts)})

	// The runner's finishResult, including the ASCII rendering the plain
	// path draws for every run.
	sp = tr.begin(id, root, "runner.measure")
	cfg := w.Config()
	perimeter := cfg.Perimeter()
	_, _, _, _ = cfg.Edges(), cfg.Triangles(), cfg.HasHoles(), w.Energy(ru)
	_ = cfg.Points()
	_ = viz.RenderMarked(cfg, map[lattice.Point]bool{})
	tr.end(sp, nil)
	return float64(moves) == t.moves && float64(perimeter) == t.perimeter, nil
}

// traced is the per-layer run of a sweep workload. Each cycle runs a
// journaled batch, a batch without a directory, and the first batch's task
// list replayed through the layers untraced and then traced. Interleaving
// keeps the host's drift out of every difference taken below: journal on
// minus off, end-to-end minus replay, traced minus untraced.
func (w sweepWorkload) traced(ctx context.Context, cfg runConfig, spec experiment.Spec, r *report) error {
	if _, err := sweepSetup(ctx, spec); err != nil {
		return err
	}
	a, err := newBatchRun()
	if err != nil {
		return err
	}
	// A temporary directory left behind changes no result; ignore the error.
	defer func() { _ = a.close() }()
	tr := newTracer()
	var (
		c0, c1  replayRun
		allocKB float64
		gcs     uint32
	)
	deadline := time.Now().Add(cfg.budget)
	var last time.Duration
	for cycle := 0; another(cycle, minRepetitions, last, deadline); cycle++ {
		start := time.Now()
		mem := startMem()
		if err := a.batch(ctx, spec, true, r); err != nil {
			return err
		}
		if err := a.batch(ctx, spec, false, r); err != nil {
			return err
		}
		kb, n := mem.stop()
		allocKB += kb
		gcs += n
		if err := replayPass(ctx, a.replay, nil, 2*cycle, &c0); err != nil {
			return err
		}
		if err := replayPass(ctx, a.replay, tr, 2*cycle+1, &c1); err != nil {
			return err
		}
		last = time.Since(start)
	}
	w.checkOutputs(r, spec, a)
	r.check("replay_matches_journal", c0.mismatches+c1.mismatches == 0,
		"%d of %d replayed tasks differed from the journal in moves or perimeter", c0.mismatches+c1.mismatches, c0.tasks+c1.tasks)

	sums := tr.summary()
	run := named(sums, "engine.run")
	steps := float64(run.Counts["steps"])
	events := float64(run.Counts["events"])
	perCall := func(name string) float64 {
		s := named(sums, name)
		return s.TotalUs / float64(max(s.Calls, 1))
	}
	tasks := float64(a.tasks + a.bareTasks)
	r.set("engine.ns_per_step", run.TotalUs*1000/steps, "ns")
	r.set("engine.moves_per_step", float64(run.Counts["moves"])/steps, "ratio")
	r.set("engine.steps_per_event", steps/events, "ratio")
	// Engine time per task over the worker time experiment.Run spent per task.
	r.set("engine.busy_share", run.TotalUs/1000/float64(c1.tasks)/(ms(a.coldWall)*loadWorkers/float64(a.tasks)), "share")
	r.set("runner.rule_us", perCall("runner.rule"), "us")
	r.set("runner.build_us", perCall("runner.build"), "us")
	r.set("runner.measure_us", perCall("runner.measure"), "us")
	// experiment.Run wall time × workers, minus the replayed task time.
	r.set("dispatch.overhead_ms_per_task", ms(a.coldWall)*loadWorkers/float64(a.tasks)-c0.msPerTask(), "ms")
	r.set("store.kb_per_task", float64(a.storeBytes)/1024/float64(len(a.replay)), "KiB")
	r.set("runtime.alloc_kb_per_task", allocKB/tasks, "KiB")
	r.set("runtime.gc_per_1k_tasks", 1000*float64(gcs)/tasks, "count")
	r.set("trace.overhead_share", c1.msPerTask()/c0.msPerTask()-1, "share")
	r.set("cached_ms_p50", best(a.cached), "ms")
	// The batches' task results pooled: submission → each result, and →
	// each batch's first.
	var pooled []float64
	for _, xs := range a.results {
		pooled = append(pooled, xs...)
	}
	firsts := a.results[0]
	r.set("cold_ms_p90", p90(pooled), "ms")
	r.set("first_ms_p50", median(firsts), "ms")
	r.Samples = map[string]int{"cold_ms": len(pooled), "first_ms": len(firsts)}

	r.layer("experiment.journal_ms_per_task", ms(a.coldWall)/float64(a.tasks)-ms(a.bareWall)/float64(a.bareTasks), "ms")
	r.layer("runtime.gc_cycles", float64(gcs), "count")
	if spec.Engines[0] == runner.EngineKMC {
		r.layer("kmc.ns_per_event", run.TotalUs*1000/events, "ns")
		r.layer("kmc.events", events/float64(c1.tasks)*float64(len(a.replay)), "count")
		speedup, err := shardedSpeedup(cfg.seed, cfg.small, tr)
		if err != nil {
			return err
		}
		r.layer("kmc.sharded2_speedup", speedup, "ratio")
	}
	r.Overhead = &overhead{UntracedMsPerTask: c0.msPerTask(), TracedMsPerTask: c1.msPerTask()}
	r.SpanSummary = tr.summary()
	r.Spans = tr.snapshot()
	return nil
}

// shardedSpeedup is sequential kMC ns/event divided by the two-stripe
// kmc.NewSharded engine's, on an event-dominated expanding spiral (λ=2).
// No workload shards; this is the measurement that decides whether stripe
// sharding earns its code.
func shardedSpeedup(seed uint64, small bool, tr *tracer) (float64, error) {
	n, steps := 10_000, uint64(20_000_000)
	if small {
		n, steps = 400, 200_000
	}
	sigma := config.Spiral(n)
	type engine interface {
		Run(uint64) uint64
		Events() uint64
	}
	nsPerEvent := func(name string, c engine) float64 {
		sp := tr.begin("sharded", 0, name)
		start := time.Now()
		c.Run(steps)
		d := time.Since(start)
		tr.end(sp, map[string]int64{"steps": int64(steps), "events": int64(c.Events())})
		return float64(d) / float64(c.Events())
	}
	seq, err := kmc.New(sigma, 2, seed)
	if err != nil {
		return 0, err
	}
	sh, err := kmc.NewSharded(sigma, 2, seed, 2)
	if err != nil {
		return 0, err
	}
	return nsPerEvent("kmc.sequential", seq) / nsPerEvent("kmc.sharded2", sh), nil
}

// batchTasks is the number of tasks in a batch of every sweep workload. A
// batch takes half a second to two seconds, so a run repeats it often
// enough for its fastest repetition to be a steady estimate; the traced run
// pools the results of its batches for cold_ms_p90.
const batchTasks = 24

// The three simulation workloads. Sizes are fixed here, not by flags; the
// small sizes exist only for the package's own test.
var (
	sweepLine = sweepWorkload{
		name: "sweep-line",
		spec: func(seed uint64, small bool) experiment.Spec {
			n, iters, reps := 100, uint64(2_000_000), batchTasks/3 // 200·n², the paper's Fig 2 scale
			if small {
				n, iters, reps = 20, 80_000, 2
			}
			return experiment.Spec{
				Scenario: "compress", Lambdas: []float64{2, 4, 6}, Sizes: []int{n},
				Starts: []string{string(runner.StartLine)}, Engines: []string{runner.EngineChain},
				Iterations: iters, Reps: reps, Seed: splitmix(seed, 1),
			}
		},
		// The phase split: λ=2 (< 2.17, expansion) stays far less compressed
		// than both λ=4 and λ=6 (> 2+√2, compression). At 200·n² steps from a
		// line λ=4 and λ=6 are still compressing and their means overlap, so
		// the order between those two is not asserted.
		check: func(r *report, _ experiment.Spec, sums []experiment.PointSummary) {
			a := meanAlpha(sums)
			r.check("phase_split", len(a) == 3 && a[0] > max(a[1], a[2]),
				"mean α at λ=2,4,6: %.4g %.4g %.4g (want λ=2 above both)", a[0], a[1], a[2])
		},
	}
	kmcSpiral = sweepWorkload{
		name: "kmc-spiral",
		spec: func(seed uint64, small bool) experiment.Spec {
			n, iters, reps := 1000, uint64(5_000_000), batchTasks
			if small {
				n, iters, reps = 100, 200_000, 2
			}
			return experiment.Spec{
				Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{n},
				Starts: []string{string(runner.StartSpiral)}, Engines: []string{runner.EngineKMC},
				Iterations: iters, Reps: reps, Seed: splitmix(seed, 2),
			}
		},
		check: func(r *report, _ experiment.Spec, sums []experiment.PointSummary) {
			a := meanAlpha(sums)[0]
			r.check("compressed", a < 2, "mean α %.4g (want < 2 at λ=4 from the spiral)", a)
		},
	}
	amoebotLine = sweepWorkload{
		name: "amoebot-line",
		spec: func(seed uint64, small bool) experiment.Spec {
			n, iters, reps := 40, uint64(100_000), batchTasks
			if small {
				n, iters, reps = 12, 30_000, 2
			}
			return experiment.Spec{
				Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{n},
				Starts: []string{string(runner.StartLine)}, Engines: []string{runner.EngineAmoebot},
				Iterations: iters, Reps: reps, Seed: splitmix(seed, 3),
			}
		},
		check: func(r *report, spec experiment.Spec, sums []experiment.PointSummary) {
			n := spec.Sizes[0]
			line := metrics.Alpha(config.Line(n).Perimeter(), n)
			a := meanAlpha(sums)[0]
			r.check("compressing", a < line, "mean α %.4g (want below the line start's %.4g)", a, line)
		},
	}
)
