package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"sops/internal/client"
	"sops/internal/experiment"
	"sops/internal/frame"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/runner"
	"sops/internal/serve"
	"sops/internal/viz"
)

// minPairs is how many job pairs each client completes even past the
// deadline: one full cycle of the mix (three run pairs, one sweep pair), so
// every run checks a sweep job and output_sha256 covers a fixed job set.
const minPairs = 4

// serveClients is the number of closed-loop clients. One client keeps one
// job in flight, and the server runs one simulation at a time, so the
// second processor is free for the serve layers: a job's latency is the
// serve stack's, not a wait for a processor between two simulations. Two
// clients running two simulations varied about twice as much between runs.
const serveClients = 1

// serveJob is one generated job and what a cold execution of it must do.
type serveJob struct {
	req   serve.JobRequest
	run   *runner.Options // run jobs: the options, for the traced replay
	tasks int64           // tasks a cold execution runs
	snaps int64           // snapshot frames a cold execution streams
}

// jobFor generates pair k of client c in measuring phase phase. Three pairs
// in four are run jobs, the fourth a two-rep sweep job; every job's seed
// derives from the run's seed, so the seed fixes the whole job sequence.
func jobFor(seed uint64, phase, c, k int, small bool) serveJob {
	s := splitmix(seed, 4, uint64(phase), uint64(c), uint64(k))
	if k%4 == 3 {
		n, iters, every := 30, uint64(180_000), uint64(20_000)
		if small {
			n, iters, every = 8, 18_000, 2_000
		}
		spec := &experiment.Spec{
			Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{n}, Reps: 2,
			Iterations: iters, SnapshotEvery: every, Seed: s,
		}
		return serveJob{req: serve.JobRequest{Spec: spec}, tasks: 2, snaps: 2 * int64(iters/every)}
	}
	n, iters, every := 50, uint64(200_000), uint64(20_000)
	if small {
		n, iters, every = 10, 20_000, 2_000
	}
	opts := &runner.Options{N: n, Lambda: 4, Iterations: iters, Seed: s, SnapshotEvery: every}
	return serveJob{req: serve.JobRequest{Run: opts}, run: opts, tasks: 1, snaps: int64(iters / every)}
}

// serveEnv is one server under test: serve.New on a fresh store behind a
// loopback httptest server.
type serveEnv struct {
	dir string
	srv *serve.Server
	ts  *httptest.Server
}

func openServe() (*serveEnv, error) {
	dir, err := os.MkdirTemp("", "sopsbench-store-*")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Dir: dir, Jobs: serveClients, TaskWorkers: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &serveEnv{dir: dir, srv: srv, ts: httptest.NewServer(srv)}, nil
}

// close stops the HTTP server (waiting for open requests), then the job
// manager, and removes the store.
func (e *serveEnv) close() error {
	e.ts.Close()
	err := e.srv.Close()
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}

func (e *serveEnv) client(c int) *client.Client {
	return client.New(e.ts.URL, client.WithHTTPClient(e.ts.Client()), client.WithClientID(fmt.Sprintf("bench-%d", c)))
}

func (e *serveEnv) counter(name string) int64 {
	if v, ok := e.srv.Manager().Metrics().Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// jobSample is what one client observed of one job, timed from the start of
// its submission.
type jobSample struct {
	job      serveJob
	cold     bool
	traced   bool
	err      error
	start    time.Time
	first    time.Duration // first snapshot frame; 0 when none streamed
	done     time.Duration // done frame
	total    time.Duration // result received
	state    string
	cacheHit bool
	result   []byte
	problems []string
	lines    [][]byte // snapshot lines as streamed, kept for the traced replay
}

// doJob submits one job, follows its binary stream to the done frame, and
// fetches its result — the closed-loop client's whole interaction — and
// checks what came back. Traced, it records a span per client call plus the
// server's queue and execution intervals from the job record.
func doJob(ctx context.Context, cl *client.Client, j serveJob, cold bool, tr *tracer, trace string) jobSample {
	s := jobSample{job: j, cold: cold, traced: tr != nil, start: time.Now()}
	root := tr.begin(trace, 0, "job")
	defer tr.end(root, nil)

	sp := tr.begin(trace, root, "client.submit")
	job, err := cl.Submit(ctx, j.req)
	tr.end(sp, nil)
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}

	lastSnap := map[string]int{}
	taskPerim := map[string]float64{}
	frames := 0
	streamStart := time.Now()
	sp = tr.begin(trace, root, "client.stream")
	err = cl.Stream(ctx, job.ID, func(f serve.Frame, raw []byte) error {
		frames++
		key := ""
		if f.Point != nil {
			key = fmt.Sprintf("%v/%d", *f.Point, f.Rep)
		}
		switch f.Type {
		case serve.FrameSnapshot:
			if s.first == 0 {
				s.first = time.Since(s.start)
				tr.add(trace, sp, "client.first_frame", streamStart, time.Now())
			}
			lastSnap[key] = f.Snapshot.Perimeter
			if tr != nil && cold && j.run != nil {
				s.lines = append(s.lines, bytes.Clone(raw))
			}
		case serve.FrameTask:
			taskPerim[key] = f.Metrics["perimeter"]
		case serve.FrameDone:
			s.done = time.Since(s.start)
			s.state, s.cacheHit = f.State, f.CacheHit
		}
		return nil
	})
	tr.end(sp, map[string]int64{"frames": int64(frames)})
	if err != nil {
		s.err = fmt.Errorf("stream %s: %w", job.ID, err)
		return s
	}

	sp = tr.begin(trace, root, "client.result")
	s.result, _, err = cl.Result(ctx, job.ID)
	tr.end(sp, map[string]int64{"bytes": int64(len(s.result))})
	if err != nil {
		s.err = fmt.Errorf("result %s: %w", job.ID, err)
		return s
	}
	s.total = time.Since(s.start)

	if s.state != serve.StateDone {
		s.problems = append(s.problems, fmt.Sprintf("%s: stream ended in state %q, want a %q done frame", job.ID, s.state, serve.StateDone))
	}
	if p := finalPerimeterProblem(j, s.result, lastSnap, taskPerim); p != "" {
		s.problems = append(s.problems, job.ID+": "+p)
	}
	if tr != nil {
		rec, err := cl.Job(ctx, job.ID)
		if err == nil && rec.StartedAt != nil && rec.FinishedAt != nil {
			tr.add(trace, root, "serve.queue", rec.SubmittedAt, *rec.StartedAt)
			tr.add(trace, root, "serve.exec", *rec.StartedAt, *rec.FinishedAt)
		}
	}
	return s
}

// finalPerimeterProblem checks each streamed final snapshot against the
// result: a run job's last snapshot against result.json, a sweep task's
// last snapshot against its task frame, and the tasks' mean against
// results.jsonl. Cached sweep jobs stream no snapshots and pass trivially.
func finalPerimeterProblem(j serveJob, result []byte, lastSnap map[string]int, taskPerim map[string]float64) string {
	if len(lastSnap) == 0 {
		return ""
	}
	if j.run != nil {
		var res runner.Result
		if err := json.Unmarshal(result, &res); err != nil {
			return fmt.Sprintf("decoding result: %v", err)
		}
		if lastSnap[""] != res.Perimeter {
			return fmt.Sprintf("final snapshot perimeter %d, result %d", lastSnap[""], res.Perimeter)
		}
		return ""
	}
	var sum float64
	for key, p := range lastSnap {
		if taskPerim[key] != float64(p) {
			return fmt.Sprintf("task %s: final snapshot perimeter %d, task frame %g", key, p, taskPerim[key])
		}
		sum += float64(p)
	}
	var ps experiment.PointSummary
	if err := json.Unmarshal(bytes.TrimSpace(result), &ps); err != nil {
		return fmt.Sprintf("decoding results.jsonl: %v", err)
	}
	if want := ps.ByMetric["perimeter"].Mean; sum/float64(len(lastSnap)) != want {
		return fmt.Sprintf("mean final snapshot perimeter %g, results.jsonl %g", sum/float64(len(lastSnap)), want)
	}
	return ""
}

// servePhase is one closed-loop measuring phase.
type servePhase struct {
	samples    []jobSample // pairs: cold, then its resubmission
	wall       time.Duration
	storeBytes int64 // store growth during the phase
	delta      map[string]int64
}

func (ph *servePhase) totals(cold bool) []float64 {
	var out []float64
	for _, s := range ph.samples {
		if s.cold == cold && s.err == nil {
			out = append(out, ms(s.total))
		}
	}
	return out
}

func (ph *servePhase) coldJobs() int { return len(ph.samples) / 2 }

func (ph *servePhase) coldRunJobs() int {
	n := 0
	for _, s := range ph.samples {
		if s.cold && s.job.run != nil {
			n++
		}
	}
	return n
}

var serveCounters = []string{"tasks_run", "cache_hits", "snapshots_streamed", "jobs_submitted"}

// measure runs serveClients closed-loop clients: each submits a cold job,
// waits for its result, resubmits the identical job (a cache hit), and moves
// on to its next pair — at least pairs pairs, and more until the deadline.
// Given a tracer, every other cycle of the mix is traced, so traced and
// untraced jobs interleave under one load.
func (e *serveEnv) measure(ctx context.Context, cfg runConfig, phase, pairs int, deadline time.Time, tr *tracer) (*servePhase, error) {
	before := map[string]int64{}
	for _, name := range serveCounters {
		before[name] = e.counter(name)
	}
	storeBefore, err := dirBytes(e.dir)
	if err != nil {
		return nil, err
	}
	per := make([][]jobSample, serveClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := e.client(c)
			for k := 0; k < pairs || time.Now().Before(deadline); k++ {
				if ctx.Err() != nil {
					return
				}
				j := jobFor(cfg.seed, phase, c, k, cfg.small)
				trace := fmt.Sprintf("p%d.c%d.k%d", phase, c, k)
				jtr := tr
				if (k/4)%2 == 0 {
					jtr = nil
				}
				cold := doJob(ctx, cl, j, true, jtr, trace+".cold")
				cached := doJob(ctx, cl, j, false, jtr, trace+".cached")
				per[c] = append(per[c], cold, cached)
			}
		}()
	}
	wg.Wait()
	ph := &servePhase{wall: time.Since(start), samples: slices.Concat(per...), delta: map[string]int64{}}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, name := range serveCounters {
		ph.delta[name] = e.counter(name) - before[name]
	}
	storeAfter, err := dirBytes(e.dir)
	if err != nil {
		return nil, err
	}
	ph.storeBytes = storeAfter - storeBefore
	return ph, nil
}

// serveChecks accumulates the serve checks over every measuring phase.
type serveChecks struct {
	pairs, notCached, differ, problems int
	firstProblem                       string
	counterMismatch                    []string
}

// tally counts the phase's operations and check outcomes into r and sc.
func (sc *serveChecks) tally(r *report, ph *servePhase) {
	var wantTasks, wantSnaps int64
	for i := 0; i+1 < len(ph.samples); i += 2 {
		cold, cached := ph.samples[i], ph.samples[i+1]
		r.op(cold.err == nil)
		r.op(cached.err == nil)
		if cold.err != nil || cached.err != nil {
			continue
		}
		sc.pairs++
		wantTasks += cold.job.tasks
		wantSnaps += cold.job.snaps
		if cold.cacheHit || !cached.cacheHit {
			sc.notCached++
		}
		if !bytes.Equal(cold.result, cached.result) {
			sc.differ++
		}
		for _, p := range slices.Concat(cold.problems, cached.problems) {
			if sc.problems == 0 {
				sc.firstProblem = p
			}
			sc.problems++
		}
	}
	want := map[string]int64{
		"tasks_run":          wantTasks,
		"snapshots_streamed": wantSnaps,
		"cache_hits":         int64(len(ph.samples) / 2),
		"jobs_submitted":     int64(len(ph.samples)),
	}
	for _, name := range serveCounters {
		if ph.delta[name] != want[name] {
			sc.counterMismatch = append(sc.counterMismatch, fmt.Sprintf("%s advanced %d, want %d", name, ph.delta[name], want[name]))
		}
	}
}

func (sc *serveChecks) record(r *report) {
	r.check("cache_hit", sc.notCached == 0, "%d of %d pairs: cold job served from cache or resubmission not a cache hit", sc.notCached, sc.pairs)
	r.check("cached_identical", sc.differ == 0, "%d of %d resubmissions returned result bytes unlike the cold job's", sc.differ, sc.pairs)
	r.check("streams", sc.problems == 0, "%d stream problems (done frame, final snapshot vs result) %s", sc.problems, sc.firstProblem)
	r.check("counters_exact", len(sc.counterMismatch) == 0,
		"tasks_run +1 per cold run job, +2 per cold sweep job, +0 per cache hit; %s", strings.Join(sc.counterMismatch, "; "))
}

// outputDigest hashes the cold results of client 0's first minPairs pairs —
// a job set fixed by the seed alone.
func outputDigest(ph *servePhase) string {
	h := sha256.New()
	pairs := 0
	for _, s := range ph.samples {
		if s.cold && pairs < minPairs {
			h.Write(s.result)
			pairs++
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// serveSetup sets the workload up: a server opened on a fresh store and one
// warm-up pair, job i of its own phase, run through it. It returns the
// server and the time the set-up took in seconds.
func serveSetup(ctx context.Context, cfg runConfig, i int) (*serveEnv, float64, error) {
	start := time.Now()
	env, err := openServe()
	if err != nil {
		return nil, 0, err
	}
	j := jobFor(cfg.seed, 100+i, 0, 0, cfg.small)
	for _, cold := range []bool{true, false} {
		if s := doJob(ctx, env.client(0), j, cold, nil, ""); s.err != nil || len(s.problems) > 0 {
			env.close()
			return nil, 0, fmt.Errorf("warm-up job: %v %v", s.err, s.problems)
		}
	}
	return env, time.Since(start).Seconds(), nil
}

// pairsPerRound is how many pairs each client runs in one round: fifteen
// cycles of the mix, 60 cold jobs and 60 cache hits, about a second and a
// half.
func pairsPerRound(small bool) int {
	if small {
		return minPairs
	}
	return 60
}

// serveRound runs round i: the workload set up afresh (a server on a new
// store, warmed up), the same job list every round, then the server closed.
// Rounds keep the store — and so the cached path's cost — the same however
// fast a run goes, give every job repetitions to estimate its latency from,
// and spread the set-ups over the whole run.
func serveRound(ctx context.Context, cfg runConfig, i int) (*servePhase, float64, error) {
	env, setup, err := serveSetup(ctx, cfg, i)
	if err != nil {
		return nil, 0, err
	}
	ph, err := env.measure(ctx, cfg, 0, pairsPerRound(cfg.small), time.Time{}, nil)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	return ph, setup, err
}

type serveWorkload struct{}

func (serveWorkload) run(ctx context.Context, cfg runConfig) (*report, error) {
	r := newReport("serve-mixed", cfg.seed, cfg.trace)
	if cfg.trace {
		return r, tracedServe(ctx, cfg, r)
	}
	var (
		sc     serveChecks
		rounds []*servePhase
		setups []float64
	)
	deadline := time.Now().Add(cfg.budget)
	for last := time.Duration(0); another(len(rounds), minRepetitions, last, deadline); {
		start := time.Now()
		ph, setup, err := serveRound(ctx, cfg, len(rounds))
		if err != nil {
			return r, err
		}
		last = time.Since(start)
		sc.tally(r, ph)
		rounds = append(rounds, ph)
		setups = append(setups, setup)
	}
	sc.record(r)
	r.OutputSHA256 = outputDigest(rounds[0])

	// Job i of every round has the same inputs; a job's latency is its median
	// over the rounds, and the median is taken across the jobs. A job takes
	// milliseconds, so its fastest round is luck: unlike best() for the
	// sweep batches, the median is what varied least between runs here.
	var walls []float64
	total := make([][]float64, len(rounds[0].samples))
	for _, ph := range rounds {
		walls = append(walls, ms(ph.wall))
		for i, s := range ph.samples {
			if s.cold && s.err == nil {
				total[i] = append(total[i], ms(s.total))
			}
		}
	}
	var cold []float64
	for i := range total {
		if len(total[i]) > 0 {
			cold = append(cold, median(total[i]))
		}
	}
	r.set("setup_s", median(setups), "s")
	r.set("ops_per_s", float64(len(rounds[0].samples))/median(walls)*1000, "1/s")
	r.set("cold_ms_p50", median(cold), "ms")
	r.set("peak_rss_mb", peakRSSMB(), "MiB")
	r.Samples = map[string]int{"cold_ms": len(cold), "repetitions": len(rounds)}
	return r, nil
}

// tracedServe is the per-layer run of serve-mixed: an untraced closed-loop
// phase (A) for allocation and store growth; a phase (T) whose mix cycles
// alternate traced and untraced — their difference is the tracing overhead;
// and a replay of T's traced cold run jobs through the runner, engine and
// frame layers, whose frames must transcode to exactly the lines the client
// streamed.
func tracedServe(ctx context.Context, cfg runConfig, r *report) (err error) {
	env, _, err := serveSetup(ctx, cfg, 0)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := env.close(); err == nil {
			err = cerr
		}
	}()
	mem := startMem()
	a, err := env.measure(ctx, cfg, 0, minPairs, time.Now().Add(cfg.budget*35/100), nil)
	if err != nil {
		return err
	}
	allocKB, gcs := mem.stop()
	tr := newTracer()
	t, err := env.measure(ctx, cfg, 1, 2*minPairs, time.Now().Add(cfg.budget*45/100), tr)
	if err != nil {
		return err
	}
	var sc serveChecks
	sc.tally(r, a)
	sc.tally(r, t)
	sc.record(r)
	r.OutputSHA256 = outputDigest(a)

	var runJobs []jobSample
	var pairMs [2][]float64 // untraced, traced
	for i := 0; i+1 < len(t.samples); i += 2 {
		cold, cached := t.samples[i], t.samples[i+1]
		if cold.err != nil || cached.err != nil {
			continue
		}
		if cold.traced {
			pairMs[1] = append(pairMs[1], ms(cold.total+cached.total))
			if cold.job.run != nil {
				runJobs = append(runJobs, cold)
			}
		} else {
			pairMs[0] = append(pairMs[0], ms(cold.total+cached.total))
		}
	}
	var fr frameStats
	replayed, mismatched := 0, 0
	deadline := time.Now().Add(cfg.budget * 20 / 100)
	for i := 0; i < len(runJobs) && (i == 0 || time.Now().Before(deadline)); i++ {
		ok, err := replayRunJob(runJobs[i], tr, fmt.Sprintf("replay.%d", i), &fr)
		if err != nil {
			return err
		}
		replayed++
		if !ok {
			mismatched++
		}
	}
	r.check("replay_matches_stream", mismatched == 0,
		"%d of %d replayed run jobs transcoded to lines unlike the streamed ones", mismatched, replayed)

	sums := tr.summary()
	run := named(sums, "engine.run")
	steps := float64(run.Counts["steps"])
	perCall := func(name string) float64 {
		s := named(sums, name)
		return s.TotalUs / float64(max(s.Calls, 1))
	}
	var coldRunMs []float64
	for _, s := range runJobs[:replayed] {
		coldRunMs = append(coldRunMs, ms(s.total))
	}
	engineMsPerJob := run.TotalUs / 1000 / float64(replayed)
	jobsA := float64(len(a.samples))
	r.set("engine.ns_per_step", run.TotalUs*1000/steps, "ns")
	r.set("engine.moves_per_step", float64(run.Counts["moves"])/steps, "ratio")
	r.set("engine.steps_per_event", steps/float64(run.Counts["events"]), "ratio")
	// Engine time of the cold run jobs over the load generators' wall time;
	// sweep jobs' simulations are not replayed and count as non-engine time.
	r.set("engine.busy_share", engineMsPerJob*float64(a.coldRunJobs())/(ms(a.wall)*serveClients), "share")
	r.set("runner.rule_us", perCall("runner.rule"), "us")
	r.set("runner.build_us", perCall("runner.build"), "us")
	r.set("runner.measure_us", perCall("runner.measure"), "us")
	// A cold run job's latency minus its simulation as replayed in-process:
	// admission, store, stream fan-out, HTTP and client time.
	r.set("dispatch.overhead_ms_per_task", mean(coldRunMs)-perCall("task")/1000, "ms")
	r.set("store.kb_per_task", float64(a.storeBytes)/1024/float64(a.coldJobs()), "KiB")
	r.set("runtime.alloc_kb_per_task", allocKB/jobsA, "KiB")
	r.set("runtime.gc_per_1k_tasks", 1000*float64(gcs)/jobsA, "count")
	r.set("trace.overhead_share", mean(pairMs[1])/mean(pairMs[0])-1, "share")
	r.set("cached_ms_p50", median(a.totals(false)), "ms")
	coldA := a.totals(true)
	var firsts []float64
	for _, s := range a.samples {
		if s.cold && s.err == nil {
			firsts = append(firsts, ms(s.first))
		}
	}
	r.set("cold_ms_p90", p90(coldA), "ms")
	r.set("first_ms_p50", median(firsts), "ms")
	r.Samples = map[string]int{"cold_ms": len(coldA), "first_ms": len(firsts)}

	isCold := func(trace string) bool { return strings.HasSuffix(trace, ".cold") }
	r.layer("serve.submit_ms_p50", median(tr.durations("client.submit", nil)), "ms")
	r.layer("serve.queue_wait_ms_p50", median(tr.durations("serve.queue", nil)), "ms")
	r.layer("serve.exec_ms_p50", median(tr.durations("serve.exec", isCold)), "ms")
	r.layer("serve.cache_hit_ratio", float64(t.delta["cache_hits"])/float64(t.delta["jobs_submitted"]), "ratio")
	r.layer("serve.tasks_run", float64(t.delta["tasks_run"]), "count")
	r.layer("serve.snapshots_streamed", float64(t.delta["snapshots_streamed"]), "count")
	r.layer("serve.cached_ms_p90", p90(a.totals(false)), "ms")
	r.layer("serve.cached_growth", cachedGrowth(a), "ratio")
	r.layer("client.stream_ms_p50", median(tr.durations("client.stream", isCold)), "ms")
	r.layer("client.result_ms_p50", median(tr.durations("client.result", isCold)), "ms")
	r.layer("client.transcode_ns_per_frame", fr.transcodeNs/float64(fr.frames), "ns")
	r.layer("frame.encode_ns_per_frame", perCall("frame.encode")*1000, "ns")
	r.layer("frame.bytes_per_frame", float64(fr.bytes)/float64(fr.frames), "bytes")
	r.layer("frame.keyframe_share", float64(fr.keyframes)/float64(fr.frames), "share")
	r.layer("frame.decode_ns_per_frame", fr.decodeNs/float64(fr.frames), "ns")
	var gap []float64
	for _, s := range runJobs {
		gap = append(gap, ms(s.done-s.first))
	}
	r.layer("stream.first_to_done_ms_p50", median(gap), "ms")
	r.layer("runtime.gc_cycles", float64(gcs), "count")

	r.Overhead = &overhead{UntracedMsPerTask: mean(pairMs[0]) / 2, TracedMsPerTask: mean(pairMs[1]) / 2}
	r.SpanSummary = tr.summary()
	r.Spans = tr.snapshot()
	return nil
}

// cachedGrowth is the median cached latency of the last quarter of the
// phase's resubmissions over that of the first quarter: how the cache path
// slows as the store fills.
func cachedGrowth(ph *servePhase) float64 {
	var cached []jobSample
	for _, s := range ph.samples {
		if !s.cold && s.err == nil {
			cached = append(cached, s)
		}
	}
	slices.SortFunc(cached, func(a, b jobSample) int { return a.start.Compare(b.start) })
	q := len(cached) / 4
	if q == 0 {
		return 1
	}
	lat := func(ss []jobSample) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = ms(s.total)
		}
		return out
	}
	return median(lat(cached[len(cached)-q:])) / median(lat(cached[:q]))
}

// frameStats accumulates the frame layer's work over replayed run jobs.
type frameStats struct {
	frames, keyframes, bytes int
	decodeNs, transcodeNs    float64
}

// replayRunJob reruns a cold run job's simulation in-process the way the
// serve layer executes it — runner.Compress's sequential path with the
// delta tap feeding frame.Encoder — then decodes the records with
// frame.Decoder and transcodes them with serve.FrameTranscoder, as the
// client does. It reports whether the transcoded lines equal the ones the
// client streamed.
func replayRunJob(s jobSample, tr *tracer, trace string, fr *frameStats) (bool, error) {
	o := *s.job.run
	root := tr.begin(trace, 0, "task")
	sp := tr.begin(trace, root, "runner.rule")
	ru, err := runner.NewRule(o.Rule, o.Lambda, o.RuleStates, o.Forage)
	tr.end(sp, nil)
	if err != nil {
		return false, err
	}
	sp = tr.begin(trace, root, "runner.build")
	start, err := runner.NewStartConfig(o.Start, o.N, o.Seed)
	if err != nil {
		return false, err
	}
	c, err := runner.NewSequentialWithRule(o.Engine, start, ru, o.Seed)
	if err != nil {
		return false, err
	}
	log := &frame.MoveLog{}
	c.SetMoveLog(log)
	tr.end(sp, nil)

	var enc frame.Encoder
	var recs [][]byte
	for done := uint64(0); done < o.Iterations; {
		k := min(o.SnapshotEvery, o.Iterations-done)
		moves := c.Accepted()
		sp = tr.begin(trace, root, "engine.run")
		c.Run(k)
		tr.end(sp, map[string]int64{"steps": int64(k), "moves": int64(c.Accepted() - moves), "events": int64(k)})
		done += k

		sp = tr.begin(trace, root, "runner.snapshot")
		p := c.Perimeter()
		snap := frame.Snap{
			Seq: len(recs), Iteration: done, Perimeter: p, Edges: c.Edges(), Energy: c.Energy(),
			Alpha: metrics.Alpha(p, o.N), Beta: metrics.Beta(p, o.N), HoleFree: c.HoleFree(),
		}
		tr.end(sp, nil)
		sp = tr.begin(trace, root, "frame.encode")
		rec := enc.EncodeSnapshot(snap, log.Drain(), true, c.Grid())
		tr.end(sp, map[string]int64{"bytes": int64(len(rec))})
		recs = append(recs, rec)
	}

	// The runner's finishResult, ASCII rendering included.
	sp = tr.begin(trace, root, "runner.measure")
	cfg := c.Config()
	_, _, _, _ = cfg.Perimeter(), cfg.Edges(), cfg.Triangles(), cfg.HasHoles()
	_ = cfg.Points()
	_ = viz.RenderMarked(cfg, map[lattice.Point]bool{})
	tr.end(sp, nil)
	tr.end(root, nil)

	var dec frame.Decoder
	var tc serve.FrameTranscoder
	match := len(recs) == len(s.lines)
	for i, rec := range recs {
		fr.frames++
		fr.bytes += len(rec)
		if k, err := frame.Kind(rec); err == nil && k == frame.KindKeyframe {
			fr.keyframes++
		}
		t0 := time.Now()
		if _, err := dec.Decode(rec); err != nil {
			return false, fmt.Errorf("decoding replayed frame %d: %w", i, err)
		}
		t1 := time.Now()
		line, err := tc.Transcode(rec)
		t2 := time.Now()
		if err != nil {
			return false, fmt.Errorf("transcoding replayed frame %d: %w", i, err)
		}
		fr.decodeNs += float64(t1.Sub(t0))
		fr.transcodeNs += float64(t2.Sub(t1))
		match = match && bytes.Equal(line, s.lines[i])
	}
	return match, nil
}
