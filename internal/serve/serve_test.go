package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sops/internal/experiment"
	"sops/internal/runner"
)

// newTestServer starts a Server over a fresh store and an httptest
// listener, closing both at test end.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submit posts a job request and decodes the accepted record.
func submit(t *testing.T, base string, req JobRequest) Job {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var job Job
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatalf("submit: decoding %s: %v", raw, err)
	}
	return job
}

// getJob fetches one job record.
func getJob(t *testing.T, base, id string) Job {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

// waitState polls a job until it reaches want (or any terminal state, which
// then must be want).
func waitState(t *testing.T, base, id, want string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job := getJob(t, base, id)
		if job.State == want {
			return job
		}
		if terminal(job.State) {
			t.Fatalf("job %s reached %q (error %q), want %q", id, job.State, job.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %q in time", id, want)
	return Job{}
}

// streamFrames follows the job's stream to its done frame and returns every
// decoded frame.
func streamFrames(t *testing.T, base, id string) []Frame {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var frames []Frame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var f Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
		if f.Type == FrameDone {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 || frames[len(frames)-1].Type != FrameDone {
		t.Fatalf("stream ended without a done frame: %d frames", len(frames))
	}
	return frames
}

// fetchResult grabs the stored result bytes.
func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// metricsMap reads /metrics into counter values.
func metricsMap(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// smallSweep is a fast, fully deterministic one-task compress sweep with
// snapshots on.
func smallSweep(seed uint64) *experiment.Spec {
	return &experiment.Spec{
		Scenario:      "compress",
		Lambdas:       []float64{4},
		Sizes:         []int{10},
		Engines:       []string{"chain"},
		Iterations:    6000,
		SnapshotEvery: 1000,
		Reps:          1,
		Seed:          seed,
	}
}

// TestSubmitStreamFetchCachedResubmit is the headline e2e: a sweep streams
// monotone-iteration snapshot frames, its result is fetchable, and an
// identical resubmission is a cache hit — byte-identical PointSummaries
// with zero simulation work, asserted by the tasks_run counter.
func TestSubmitStreamFetchCachedResubmit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := ts.URL

	job := submit(t, base, JobRequest{Spec: smallSweep(5)})
	if job.Kind != KindSweep || job.Digest == "" || job.TasksTotal != 1 {
		t.Fatalf("accepted job malformed: %+v", job)
	}
	if want, err := experiment.Digest(*smallSweep(5)); err != nil || job.Digest != want {
		t.Fatalf("sweep job digest %s, experiment.Digest of the raw spec %s (%v)", job.Digest, want, err)
	}

	frames := streamFrames(t, base, job.ID)
	var snaps, tasks int
	lastIter := uint64(0)
	for _, f := range frames {
		switch f.Type {
		case FrameSnapshot:
			snaps++
			if f.Snapshot == nil || f.Snapshot.Iteration <= lastIter {
				t.Fatalf("snapshot iterations not strictly increasing: %+v after %d", f.Snapshot, lastIter)
			}
			lastIter = f.Snapshot.Iteration
			if f.Point == nil || f.Point.Lambda != 4 {
				t.Fatalf("snapshot frame missing its sweep point: %+v", f)
			}
		case FrameTask:
			tasks++
			if f.Metrics["alpha"] == 0 {
				t.Fatalf("task frame missing metrics: %+v", f)
			}
		}
	}
	if snaps != 6 || tasks != 1 {
		t.Fatalf("got %d snapshot frames and %d task frames, want 6 and 1", snaps, tasks)
	}
	for i, f := range frames {
		if f.Seq != i {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
	}

	done := waitState(t, base, job.ID, StateDone)
	if done.CacheHit || done.TasksRun != 1 {
		t.Fatalf("first execution should simulate: %+v", done)
	}
	first := fetchResult(t, base, job.ID)
	if !bytes.Contains(first, []byte(`"alpha"`)) {
		t.Fatalf("results.jsonl content unexpected: %s", first)
	}
	before := metricsMap(t, base)

	// Identical spec, separately submitted: served from the store.
	rejob := submit(t, base, JobRequest{Spec: smallSweep(5)})
	if rejob.ID == job.ID {
		t.Fatal("resubmission must be a new job")
	}
	if rejob.Digest != job.Digest {
		t.Fatalf("identical specs digest differently: %s vs %s", rejob.Digest, job.Digest)
	}
	redone := waitState(t, base, rejob.ID, StateDone)
	if !redone.CacheHit {
		t.Fatalf("resubmission should be a cache hit: %+v", redone)
	}
	second := fetchResult(t, base, rejob.ID)
	if !bytes.Equal(first, second) {
		t.Fatalf("cached result differs from original:\n%s\nvs\n%s", first, second)
	}
	after := metricsMap(t, base)
	if after["tasks_run"] != before["tasks_run"] {
		t.Fatalf("cache hit did simulation work: tasks_run %d → %d", before["tasks_run"], after["tasks_run"])
	}
	if after["cache_hits"] != before["cache_hits"]+1 {
		t.Fatalf("cache_hits %d → %d, want +1", before["cache_hits"], after["cache_hits"])
	}
	// The cached job's stream still terminates with a marked done frame.
	cframes := streamFrames(t, base, rejob.ID)
	if last := cframes[len(cframes)-1]; !last.CacheHit || last.State != StateDone {
		t.Fatalf("cached done frame: %+v", last)
	}

	// A different seed is different content: no false sharing.
	other := submit(t, base, JobRequest{Spec: smallSweep(6)})
	if other.Digest == job.Digest {
		t.Fatal("different seeds must digest differently")
	}
}

// streamBytes reads a job's whole NDJSON stream.
func streamBytes(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: status %d, %v: %s", id, resp.StatusCode, err, raw)
	}
	return raw
}

// checkCachedStream asserts that a cache hit's NDJSON stream replays the
// cold job's frames exactly and ends in the same done frame, marked as a
// cache hit.
func checkCachedStream(t *testing.T, cold, cached []byte) {
	t.Helper()
	coldLines := bytes.Split(bytes.TrimSuffix(cold, []byte("\n")), []byte("\n"))
	cachedLines := bytes.Split(bytes.TrimSuffix(cached, []byte("\n")), []byte("\n"))
	if len(coldLines) < 2 || len(cachedLines) != len(coldLines) {
		t.Fatalf("cached stream has %d lines, cold stream %d", len(cachedLines), len(coldLines))
	}
	last := len(coldLines) - 1
	for i := range last {
		if !bytes.Equal(cachedLines[i], coldLines[i]) {
			t.Fatalf("frame %d differs on replay:\n%s\nvs\n%s", i, cachedLines[i], coldLines[i])
		}
	}
	var coldDone, cachedDone Frame
	if err := json.Unmarshal(coldLines[last], &coldDone); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(cachedLines[last], &cachedDone); err != nil {
		t.Fatal(err)
	}
	if cachedDone.Type != FrameDone || cachedDone.Seq != coldDone.Seq ||
		cachedDone.State != coldDone.State || !cachedDone.CacheHit {
		t.Fatalf("cached done frame %s after cold done frame %s", cachedLines[last], coldLines[last])
	}
}

// TestCacheHitAnsweredAtSubmit: resubmitting a completed run job is
// answered by the POST itself — its body is the finished record — and the
// job's stream replays the cold job's frames from the store, with no
// simulation work and one count each of submitted, cache hit, completed.
func TestCacheHitAnsweredAtSubmit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := ts.URL
	req := JobRequest{Run: &runner.Options{N: 12, Lambda: 4, Iterations: 4000, Seed: 3, SnapshotEvery: 1000}}
	cold := submit(t, base, req)
	waitState(t, base, cold.ID, StateDone)
	coldStream := streamBytes(t, base, cold.ID)
	before := metricsMap(t, base)

	hit := submit(t, base, req)
	if hit.State != StateDone || !hit.CacheHit || hit.TasksTotal != 1 ||
		hit.StartedAt == nil || hit.FinishedAt == nil || !hit.StartedAt.Equal(*hit.FinishedAt) {
		t.Fatalf("resubmission's POST body is %+v, want a finished cache hit", hit)
	}
	checkCachedStream(t, coldStream, streamBytes(t, base, hit.ID))
	if got := getJob(t, base, hit.ID); got.State != StateDone || !got.CacheHit {
		t.Fatalf("cache hit's record: %+v", got)
	}
	after := metricsMap(t, base)
	for name, want := range map[string]int64{"tasks_run": 0, "jobs_submitted": 1, "cache_hits": 1, "jobs_completed": 1} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s moved by %d, want %d", name, got, want)
		}
	}
}

// TestCacheHitIsNeverShed: a cache hit takes no admission slot, so a node
// whose only slot a long job holds still answers a resubmission of a
// completed job with 202 done instead of shedding it.
func TestCacheHitIsNeverShed(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxActive: 1, ClientQuota: 1, Jobs: 1})
	base := ts.URL
	done := submit(t, base, JobRequest{Spec: smallSweep(70)})
	waitState(t, base, done.ID, StateDone)
	hog := submit(t, base, JobRequest{Spec: &experiment.Spec{
		Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{60},
		Engines: []string{"chain"}, Iterations: 40_000_000, SnapshotEvery: 100_000,
		Reps: 2, Seed: 71,
	}})
	before := metricsMap(t, base)
	hit := submit(t, base, JobRequest{Spec: smallSweep(70)})
	if hit.State != StateDone || !hit.CacheHit {
		t.Fatalf("resubmission at capacity: %+v, want a done cache hit", hit)
	}
	if after := metricsMap(t, base); after["requests_shed"] != before["requests_shed"] {
		t.Fatalf("requests_shed %d → %d", before["requests_shed"], after["requests_shed"])
	}
	if st := getJob(t, base, hog.ID).State; terminal(st) {
		t.Fatalf("the long job ended (%s) before the resubmission was checked", st)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+hog.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, base, hog.ID, StateCanceled)
}

// TestRunJobStreamsSVGAndCachesFrames: run jobs stream SVG-bearing
// snapshots, persist their frames, and replay them byte-identically on a
// cache hit.
func TestRunJobStreamsSVGAndCachesFrames(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := ts.URL
	req := JobRequest{Run: &runner.Options{
		N: 8, Lambda: 4, Iterations: 3000, Seed: 2, SnapshotEvery: 1000,
	}, SVG: true}

	job := submit(t, base, req)
	if job.Kind != KindRun {
		t.Fatalf("kind %q", job.Kind)
	}
	frames := streamFrames(t, base, job.ID)
	var svgFrames int
	for _, f := range frames {
		if f.Type == FrameSnapshot {
			if !strings.Contains(f.Snapshot.SVG, "<svg") {
				t.Fatalf("snapshot frame missing SVG: %+v", f)
			}
			svgFrames++
		}
	}
	if svgFrames != 3 {
		t.Fatalf("got %d svg snapshot frames, want 3", svgFrames)
	}
	done := waitState(t, base, job.ID, StateDone)
	if done.TasksRun != 1 {
		t.Fatalf("run job should report one simulated task: %+v", done)
	}
	// Completed run jobs offload their frame history to the store shortly
	// after the done state lands; streaming rehydrates it from disk. The
	// offload is observable only on a job nobody streams meanwhile (any
	// stream request — including one racing the job's fast completion —
	// refills the log), so assert it on a sibling job left unstreamed.
	unstreamed := submit(t, base, JobRequest{Run: &runner.Options{
		N: 8, Lambda: 4, Iterations: 3000, Seed: 77, SnapshotEvery: 1000,
	}, SVG: true})
	waitState(t, base, unstreamed.ID, StateDone)
	offloadDeadline := time.Now().Add(5 * time.Second)
	for {
		if j := getJob(t, base, unstreamed.ID); j.Frames == 0 {
			break
		}
		if time.Now().After(offloadDeadline) {
			t.Fatalf("finished run job never offloaded its frames: %+v", getJob(t, base, unstreamed.ID))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := streamFrames(t, base, unstreamed.ID); len(got) != 4 {
		t.Fatalf("rehydrated stream has %d frames, want 4 (3 snapshots + done)", len(got))
	}
	refetched := streamFrames(t, base, job.ID)
	if len(refetched) != len(frames) {
		t.Fatalf("rehydrated stream has %d frames, live had %d", len(refetched), len(frames))
	}
	var res runner.Result
	if err := json.Unmarshal(fetchResult(t, base, job.ID), &res); err != nil {
		t.Fatal(err)
	}
	if res.N != 8 || res.Iterations != 3000 || len(res.Points) != 8 {
		t.Fatalf("stored run result malformed: %+v", res)
	}

	rejob := submit(t, base, req)
	redone := waitState(t, base, rejob.ID, StateDone)
	if !redone.CacheHit {
		t.Fatalf("identical run should cache-hit: %+v", redone)
	}
	reframes := streamFrames(t, base, rejob.ID)
	if len(reframes) != len(frames) {
		t.Fatalf("replayed %d frames, original %d", len(reframes), len(frames))
	}
	for i, f := range frames {
		if f.Type != FrameDone && f.Snapshot.SVG != reframes[i].Snapshot.SVG {
			t.Fatalf("frame %d SVG differs on replay", i)
		}
	}
}

// TestCancelMidRun: DELETE on a running job cancels it; the stream
// terminates with a canceled done frame and the record is final.
func TestCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := ts.URL
	// Big enough to still be running when the cancel lands.
	spec := &experiment.Spec{
		Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{60},
		Engines: []string{"chain"}, Iterations: 40_000_000, SnapshotEvery: 100_000,
		Reps: 2, Seed: 1,
	}
	job := submit(t, base, JobRequest{Spec: spec})
	waitState(t, base, job.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	canceled := waitState(t, base, job.ID, StateCanceled)
	if canceled.FinishedAt == nil {
		t.Fatalf("canceled job missing FinishedAt: %+v", canceled)
	}
	frames := streamFrames(t, base, job.ID)
	if last := frames[len(frames)-1]; last.State != StateCanceled {
		t.Fatalf("done frame state %q, want canceled", last.State)
	}
	// A pending job cancels too (fill the single-job pool first).
	_, _ = http.Get(base + "/v1/jobs") // keepalive no-op; pool is free again here
}

// TestRestartResume: a server closed mid-sweep leaves a journal; a new
// server over the same store requeues the job and finishes it by replaying
// completed tasks instead of rerunning them — `sops resume` semantics
// behind the service.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	spec := &experiment.Spec{
		Scenario: "compress", Lambdas: []float64{3, 4}, Sizes: []int{24},
		Engines: []string{"chain"}, Iterations: 600_000, Reps: 3, Seed: 9,
	}
	s1, err := New(Options{Dir: dir, Jobs: 1, TaskWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s1.Manager().Submit(JobRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for at least one journaled task, then pull the plug.
	digestDir := filepath.Join(dir, "exp", job.Digest[:16])
	journal := filepath.Join(digestDir, "journal.jsonl")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(journal); err == nil && bytes.Count(raw, []byte("\n")) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no journal entries before deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	got, ok := s1.Manager().Job(job.ID)
	if !ok {
		t.Fatal("job lost at shutdown")
	}
	if terminal(got.State) {
		t.Skipf("sweep finished before shutdown (state %s); resume not exercised", got.State)
	}

	s2, err := New(Options{Dir: dir, Jobs: 1, TaskWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	deadline = time.Now().Add(60 * time.Second)
	for {
		j, ok := s2.Manager().Job(job.ID)
		if !ok {
			t.Fatal("restarted server does not know the job")
		}
		if j.State == StateDone {
			if j.TasksReplayed < 1 {
				t.Fatalf("resume replayed no tasks: %+v", j)
			}
			if j.TasksRun+j.TasksReplayed != j.TasksTotal || j.TasksTotal != 6 {
				t.Fatalf("task accounting off after resume: %+v", j)
			}
			break
		}
		if terminal(j.State) {
			t.Fatalf("job reached %q after restart: %s", j.State, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q after restart", j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := readCompletion(digestDir, job.Digest); !ok {
		t.Fatal("completed sweep missing COMPLETE marker")
	}
	if _, ok := readCompletion(digestDir, "not-the-digest"); ok {
		t.Fatal("COMPLETE marker served for a foreign digest")
	}
	// The resumed result must equal a from-scratch run of the same spec.
	fresh := t.TempDir()
	if _, err := experiment.Run(t.Context(), *spec, experiment.RunOptions{Dir: fresh, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(digestDir, experiment.ResultsJSONL))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(fresh, experiment.ResultsJSONL))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed results.jsonl differs from an uninterrupted run")
	}
}

// TestEndpointValidation covers the API's error surface.
func TestEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := ts.URL
	post := func(body string) (int, string) {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"empty", `{}`, "sweep spec or run options"},
		{"both", `{"spec":{"scenario":"compress"},"run":{"n":5,"lambda":4}}`, "not both"},
		{"unknown scenario", `{"spec":{"scenario":"nope"}}`, "unknown scenario"},
		{"bad lambda", `{"spec":{"scenario":"compress","lambdas":[-1]}}`, "positive"},
		{"huge lambda", `{"spec":{"scenario":"compress","lambdas":[1e40]}}`, "overflows"},
		{"tiny lambda", `{"spec":{"scenario":"compress","lambdas":[1e-40]}}`, "overflows"},
		{"bad run engine", `{"run":{"n":5,"lambda":4,"engine":"warp"}}`, "unknown engine"},
		{"bad run n", `{"run":{"n":0,"lambda":4}}`, "N must be positive"},
		{"removed run field", `{"run":{"n":10,"lambda":4,"distributed":true}}`, `unknown field \"distributed\"`},
		{"removed workers field", `{"run":{"n":10,"lambda":4,"engine":"amoebot","workers":2}}`, `unknown field \"workers\"`},
		{"negative rule states", `{"run":{"n":10,"lambda":4,"rule_states":-1}}`, "RuleStates must be non-negative"},
		{"unknown field", `{"sepc":{}}`, "unknown field"},
		{"kind mismatch", `{"kind":"run","spec":{"scenario":"compress"}}`, "does not take"},
	} {
		code, body := post(tc.body)
		if code != http.StatusBadRequest || !strings.Contains(body, tc.wantErr) {
			t.Errorf("%s: got %d %q, want 400 containing %q", tc.name, code, body, tc.wantErr)
		}
	}
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/stream", "/v1/jobs/nope/result"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var infos []scenarioInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	names := map[string]bool{}
	for _, in := range infos {
		names[in.Name] = true
		if in.DefaultSpec.Reps < 1 {
			t.Errorf("scenario %s default spec not normalized: %+v", in.Name, in.DefaultSpec)
		}
	}
	for _, want := range []string{"compress", "align", "phase", "mixing"} {
		if !names[want] {
			t.Errorf("scenario list missing %q", want)
		}
	}
}

// TestListAndDelete: listing preserves submission order; DELETE removes
// terminal jobs and their records.
func TestListAndDelete(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	base := ts.URL
	a := submit(t, base, JobRequest{Spec: smallSweep(11)})
	b := submit(t, base, JobRequest{Spec: smallSweep(12)})
	waitState(t, base, a.ID, StateDone)
	waitState(t, base, b.ID, StateDone)

	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jobs) != 2 || jobs[0].ID != a.ID || jobs[1].ID != b.ID {
		t.Fatalf("listing wrong: %+v", jobs)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+a.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dout struct {
		Deleted bool `json:"deleted"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dout); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if !dout.Deleted {
		t.Fatal("terminal job not deleted")
	}
	if _, ok := s.Manager().Job(a.ID); ok {
		t.Fatal("deleted job still listed")
	}
	if _, err := os.Stat(filepath.Join(s.Manager().dir, "jobs", a.ID+".json")); !os.IsNotExist(err) {
		t.Fatalf("deleted job record still on disk: %v", err)
	}
	// The cached workspace survives deletion: resubmission still hits.
	c := submit(t, base, JobRequest{Spec: smallSweep(11)})
	if got := waitState(t, base, c.ID, StateDone); !got.CacheHit {
		t.Fatalf("workspace should outlive job deletion: %+v", got)
	}
}

// TestDeleteStoreError: a DELETE whose record removal fails answers 500
// internal and leaves the job in place, not 404 job_not_found for a job
// that is still there. The store error is a non-empty directory where the
// done job's record was. Once the record can be removed, DELETE succeeds;
// an unknown id answers 404 job_not_found.
func TestDeleteStoreError(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	base := ts.URL
	job := submit(t, base, JobRequest{Run: &runner.Options{N: 8, Lambda: 4, Iterations: 2000, Seed: 9}})
	waitState(t, base, job.ID, StateDone)
	rec := filepath.Join(s.Manager().dir, "jobs", job.ID+".json")
	if err := os.Remove(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(rec, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	del := func(id string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := del(job.ID)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("DELETE over an unremovable record: status %d, want 500", resp.StatusCode)
	}
	if apiErr := decodeEnvelope(t, resp); apiErr.Code != CodeInternal || apiErr.JobID != job.ID {
		t.Errorf("DELETE over an unremovable record: envelope %+v, want code %q", apiErr, CodeInternal)
	}
	if got := getJob(t, base, job.ID); got.State != StateDone {
		t.Fatalf("job after a failed DELETE: %+v, want it still done", got)
	}

	if err := os.RemoveAll(rec); err != nil {
		t.Fatal(err)
	}
	resp = del(job.ID)
	var out struct {
		Deleted bool `json:"deleted"`
	}
	err := json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !out.Deleted {
		t.Fatalf("DELETE once the record is removable: status %d, deleted %v, err %v", resp.StatusCode, out.Deleted, err)
	}
	if _, ok := s.Manager().Job(job.ID); ok {
		t.Fatal("deleted job still listed")
	}
	resp = del(job.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE of an unknown id: status %d, want 404", resp.StatusCode)
	}
	if apiErr := decodeEnvelope(t, resp); apiErr.Code != CodeJobNotFound {
		t.Errorf("DELETE of an unknown id: envelope %+v, want code %q", apiErr, CodeJobNotFound)
	}
}

// TestDeleteAtFinishStaysDeleted: a job deleted the moment it reads
// terminal stays deleted. The job turns terminal in memory before its
// terminal record is written; a Delete landing in between must still win,
// or the record comes back and the job reappears on the next restart.
func TestDeleteAtFinishStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 200
	for i := 0; i < jobs; i++ {
		job, err := m.Submit(JobRequest{Run: &runner.Options{N: 3, Lambda: 4, Iterations: 10, Seed: uint64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			j, ok := m.Job(job.ID)
			if !ok {
				t.Fatalf("job %s vanished before it was deleted", job.ID)
			}
			if terminal(j.State) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q", job.ID, j.State)
			}
		}
		if _, deleted, err := m.Delete(job.ID); err != nil || !deleted {
			t.Fatalf("delete %s: deleted=%v err=%v", job.ID, deleted, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "jobs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Fatalf("%d of %d deleted job records came back, e.g. %s", len(left), jobs, filepath.Base(left[0]))
	}
}

// TestConcurrentFollowersOfOneJob: several clients streaming the same job
// at once see identical bytes. (Frame slices are shared across followers;
// under -race this also proves the emit path never mutates them.)
func TestConcurrentFollowersOfOneJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := ts.URL
	job := submit(t, base, JobRequest{Spec: smallSweep(31)})
	const followers = 8
	bodies := make(chan string, followers)
	for i := 0; i < followers; i++ {
		go func() {
			resp, err := http.Get(base + "/v1/jobs/" + job.ID + "/stream")
			if err != nil {
				bodies <- "err: " + err.Error()
				return
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				bodies <- "err: " + err.Error()
				return
			}
			bodies <- string(raw)
		}()
	}
	want := ""
	for i := 0; i < followers; i++ {
		got := <-bodies
		if strings.HasPrefix(got, "err: ") {
			t.Fatal(got)
		}
		if want == "" {
			want = got
		}
		if got != want {
			t.Fatalf("follower %d saw a different stream", i)
		}
	}
	if !strings.Contains(want, `"type":"done"`) {
		t.Fatal("streams missing the done frame")
	}
}

// TestRunRuleStatesOnStatelessRuleHitsCache: a states override on a
// stateless rule normalizes away, so the run digests as it does without
// the override and resubmitting it is a cache hit.
func TestRunRuleStatesOnStatelessRuleHitsCache(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := ts.URL
	for i, name := range []string{runner.RuleCompression, runner.RuleForage} {
		plain := runner.Options{N: 8, Lambda: 4, Iterations: 2000, Seed: uint64(50 + i), Rule: name}
		cold := waitState(t, base, submit(t, base, JobRequest{Run: &plain}).ID, StateDone)
		for _, states := range []int{1, 3} {
			override := plain
			override.RuleStates = states
			hit := submit(t, base, JobRequest{Run: &override})
			if hit.Digest != cold.Digest || !hit.CacheHit || hit.Request.Run.RuleStates != 0 {
				t.Errorf("%s states=%d: digest %.16s cache_hit=%v rule_states=%d, want digest %.16s served from the cache",
					name, states, hit.Digest, hit.CacheHit, hit.Request.Run.RuleStates, cold.Digest)
			}
		}
	}
}

// TestDeleteKeepsCachedWorkspace: a run's workspace is the cache, shared
// by every job of its digest, so it outlives the delete of a finished job
// and a resubmission is still a cache hit.
func TestDeleteKeepsCachedWorkspace(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	base := ts.URL
	m := s.Manager()
	run := runner.Options{N: 8, Lambda: 4, Iterations: 2000, Seed: 2, Engine: runner.EngineAmoebot}
	job := waitState(t, base, submit(t, base, JobRequest{Run: &run}).ID, StateDone)
	dir := m.workspace(&job)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("finished run has no workspace: %v", err)
	}
	if _, deleted, err := m.Delete(job.ID); err != nil || !deleted {
		t.Fatalf("delete: deleted=%v err=%v", deleted, err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("workspace %s after delete: %v, want it kept", dir, err)
	}
	if again := submit(t, base, JobRequest{Run: &run}); !again.CacheHit {
		t.Errorf("resubmission after delete: %+v, want a cache hit", again)
	}
}

// TestDigestLocksDrain: a digest's single-flight lock lives only while a
// job holds or waits for it, so distinct workloads do not grow the manager
// for the life of the process. Each workload is submitted twice, so a twin
// can wait on the lock its first copy holds.
func TestDigestLocksDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	base := ts.URL
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		run := &runner.Options{N: 8, Lambda: 4, Iterations: 20000, Seed: seed}
		for twin := 0; twin < 2; twin++ {
			ids = append(ids, submit(t, base, JobRequest{Run: run}).ID)
		}
	}
	ids = append(ids, submit(t, base, JobRequest{Spec: smallSweep(41)}).ID)
	for _, id := range ids {
		waitState(t, base, id, StateDone)
	}
	m := s.Manager()
	m.mu.Lock()
	left := len(m.digestLocks)
	m.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d digest locks left after %d finished jobs", left, len(ids))
	}
}

// TestRestartStreamsRecoveredJob: a job finished before a restart still
// streams after it — history hydrated lazily from the store, frames
// included for run jobs.
func TestRestartStreamsRecoveredJob(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	job := submit(t, ts1.URL, JobRequest{Run: &runner.Options{
		N: 8, Lambda: 4, Iterations: 2000, Seed: 4, SnapshotEvery: 1000,
	}})
	waitState(t, ts1.URL, job.ID, StateDone)
	before := streamFrames(t, ts1.URL, job.ID)
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer func() { ts2.Close(); s2.Close() }()
	after := streamFrames(t, ts2.URL, job.ID)
	if len(after) != len(before) {
		t.Fatalf("recovered stream has %d frames, original %d", len(after), len(before))
	}
	for i, f := range before {
		if f.Type == FrameSnapshot && *after[i].Snapshot != *f.Snapshot {
			t.Fatalf("recovered frame %d differs: %+v vs %+v", i, after[i].Snapshot, f.Snapshot)
		}
	}
	if last := after[len(after)-1]; last.Type != FrameDone || last.State != StateDone {
		t.Fatalf("recovered stream terminal frame: %+v", last)
	}
}

// TestRecoveredJobWithUnknownFieldFails: a job record left pending by a
// previous process whose stored request carries a field this binary does
// not know (an option since removed, such as "shards" or "workers") must
// not be re-run with the field dropped. Open fails it with the decode
// error and persists that; a terminal record with the same field still
// loads as it was. In cluster mode the claim path, which reads through
// readRecord, settles it the same way instead of claiming it.
func TestRecoveredJobWithUnknownFieldFails(t *testing.T) {
	removed := []string{"shards", "workers"}
	record := func(t *testing.T, dir, id, state, field string) {
		t.Helper()
		req := JobRequest{Run: &runner.Options{N: 8, Lambda: 4, Iterations: 2000, Seed: 4, Engine: runner.EngineAmoebot}}
		if _, err := req.normalize(); err != nil {
			t.Fatal(err)
		}
		digest, err := jobDigest(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(Job{ID: id, Kind: KindRun, State: state, Digest: digest,
			Request: req, SubmittedAt: time.Now().UTC(), TasksTotal: 1})
		if err != nil {
			t.Fatal(err)
		}
		raw = bytes.Replace(raw, []byte(`"run":{`), []byte(`"run":{"`+field+`":2,`), 1)
		if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs", id+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	refused := func(t *testing.T, m *Manager, id, field string) {
		t.Helper()
		want := `unknown field "` + field + `"`
		j, ok := m.Job(id)
		if !ok || j.State != StateFailed || !strings.Contains(j.Error, want) {
			t.Fatalf("recovered job %s: state %q error %q, want failed naming %s", id, j.State, j.Error, want)
		}
		if n := counterVal(m, "tasks_run"); n != 0 {
			t.Fatalf("tasks_run = %d after recovery, want 0", n)
		}
	}

	t.Run("single-node", func(t *testing.T) {
		dir := t.TempDir()
		for i, field := range removed {
			record(t, dir, fmt.Sprintf("j%08d", 2*i), StatePending, field)
			record(t, dir, fmt.Sprintf("j%08d", 2*i+1), StateDone, field)
		}
		m, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for i, field := range removed {
			pending, done := fmt.Sprintf("j%08d", 2*i), fmt.Sprintf("j%08d", 2*i+1)
			refused(t, m, pending, field)
			stored, err := m.readRecord(pending)
			if err != nil || stored.State != StateFailed || !strings.Contains(stored.Error, field) {
				t.Fatalf("stored record: state %q error %q (%v), want failed naming %s", stored.State, stored.Error, err, field)
			}
			if j, ok := m.Job(done); !ok || j.State != StateDone {
				t.Fatalf("terminal record with an unknown field %q: %+v, want it loaded as done", field, j)
			}
		}
		if n := counterVal(m, "jobs_failed"); n != int64(len(removed)) {
			t.Fatalf("jobs_failed = %d after recovery, want %d", n, len(removed))
		}
	})

	t.Run("cluster", func(t *testing.T) {
		dir := t.TempDir()
		m := openNode(t, clusterOpts(dir, "node-a"))
		for i, field := range removed {
			record(t, dir, fmt.Sprintf("j%08d-node-b", i), StatePending, field)
		}
		m.scanOnce()
		for i, field := range removed {
			id := fmt.Sprintf("j%08d-node-b", i)
			refused(t, m, id, field)
			if _, err := os.Stat(m.jobLeasePath(id)); !os.IsNotExist(err) {
				t.Fatalf("refused job %s was leased (stat: %v)", id, err)
			}
		}
	})
}

// TestWorkCounterAdvancesOnRealWork pins the other direction of the
// cache assertion: distinct specs do simulate.
func TestWorkCounterAdvancesOnRealWork(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := ts.URL
	before := metricsMap(t, base)
	job := submit(t, base, JobRequest{Spec: smallSweep(21)})
	waitState(t, base, job.ID, StateDone)
	after := metricsMap(t, base)
	if after["tasks_run"] != before["tasks_run"]+1 {
		t.Fatalf("tasks_run %d → %d, want +1", before["tasks_run"], after["tasks_run"])
	}
	if fmt.Sprint(after["jobs_completed"]) == fmt.Sprint(before["jobs_completed"]) {
		t.Fatal("jobs_completed did not advance")
	}
}

// TestResultErrors: GET /result tells an unknown job (404 job_not_found)
// from one still pending or running (409 job_not_complete) and from a
// terminal one with no stored result (404 no_result): failed, canceled, or
// done with its workspace gone.
func TestResultErrors(t *testing.T) {
	dir := t.TempDir()
	// A stored pending record carrying a removed run field recovers as
	// failed before it ever runs.
	failed := JobRequest{Run: &runner.Options{N: 8, Lambda: 4, Iterations: 2000, Seed: 4}}
	if _, err := failed.normalize(); err != nil {
		t.Fatal(err)
	}
	digest, err := jobDigest(failed)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(Job{ID: "j00000000", Kind: KindRun, State: StatePending, Digest: digest,
		Request: failed, SubmittedAt: time.Now().UTC(), TasksTotal: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`"run":{`), []byte(`"run":{"workers":2,`), 1)
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "j00000000.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Dir: dir, Jobs: 1})
	base := ts.URL

	expect := func(id string, status int, code string) {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != status {
			t.Errorf("job %s: status %d, want %d", id, resp.StatusCode, status)
		}
		if apiErr := decodeEnvelope(t, resp); apiErr.Code != code || apiErr.JobID != id {
			t.Errorf("job %s: envelope %+v, want code %q", id, apiErr, code)
		}
	}
	done := submit(t, base, JobRequest{Run: &runner.Options{N: 8, Lambda: 4, Iterations: 2000, Seed: 9}})
	done = waitState(t, base, done.ID, StateDone)
	fetchResult(t, base, done.ID)
	hog := submit(t, base, JobRequest{Spec: &experiment.Spec{
		Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{60},
		Engines: []string{"chain"}, Iterations: 40_000_000, Reps: 2, Seed: 41,
	}})
	waitState(t, base, hog.ID, StateRunning)
	queued := submit(t, base, JobRequest{Run: &runner.Options{N: 8, Lambda: 4, Iterations: 2000, Seed: 10}})

	expect("j99999999", http.StatusNotFound, CodeJobNotFound)
	expect(hog.ID, http.StatusConflict, CodeJobNotComplete)
	if getJob(t, base, queued.ID).State != StatePending {
		t.Fatalf("job %s should wait behind the running one", queued.ID)
	}
	expect(queued.ID, http.StatusConflict, CodeJobNotComplete)
	if j := getJob(t, base, "j00000000"); j.State != StateFailed {
		t.Fatalf("recovered record: state %q, want failed", j.State)
	}
	expect("j00000000", http.StatusNotFound, CodeNoResult)
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+hog.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, base, hog.ID, StateCanceled)
	expect(hog.ID, http.StatusNotFound, CodeNoResult)
	if err := os.RemoveAll(s.mgr.workspace(&done)); err != nil {
		t.Fatal(err)
	}
	expect(done.ID, http.StatusNotFound, CodeNoResult)
}
