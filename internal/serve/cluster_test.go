package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sops/internal/experiment"
	"sops/internal/frame"
	"sops/internal/runner"
)

// Cluster fault-injection and lifecycle tests: in-process nodes sharing one
// store directory, aggressive lease timings so steals happen in
// milliseconds, and a kill() hook that crashes a node without any shutdown
// bookkeeping — the closest an in-process test gets to SIGKILL.

// clusterOpts are lease timings tuned for tests: a lease goes stale ~300ms
// after its owner dies and scanners look every 50ms.
func clusterOpts(dir, node string) Options {
	return Options{
		Dir:         dir,
		Jobs:        1,
		TaskWorkers: 1,
		QueueDepth:  16,
		NodeID:      node,
		LeaseTTL:    300 * time.Millisecond,
		Heartbeat:   75 * time.Millisecond,
		ScanEvery:   50 * time.Millisecond,
	}
}

// openNode opens one cluster manager, closing it at test end.
func openNode(t *testing.T, opt Options) *Manager {
	t.Helper()
	m, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// counterVal reads one /metrics counter off a manager.
func counterVal(m *Manager, name string) int64 {
	if v, ok := m.counters.Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// waitJob polls a manager until the job reaches want.
func waitJob(t *testing.T, m *Manager, id, want string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, ok := m.Job(id)
		if ok && j.State == want {
			return j
		}
		if ok && terminal(j.State) {
			t.Fatalf("job %s reached %q (error %q), want %q", id, j.State, j.Error, want)
		}
		if time.Now().After(deadline) {
			state := "<unknown>"
			if ok {
				state = j.State
			}
			t.Fatalf("job %s stuck in %q, want %q", id, state, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// collectFrames follows a job's stream on one node to its terminal frame.
func collectFrames(t *testing.T, m *Manager, id string, timeout time.Duration) []Frame {
	t.Helper()
	st, ok := m.Stream(id)
	if !ok {
		t.Fatalf("node %s does not know job %s", m.nodeID, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var frames []Frame
	err := st.follow(ctx, func(line []byte) error {
		var f Frame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		frames = append(frames, f)
		if f.Type == FrameDone {
			return context.Canceled // stop following; history is complete
		}
		return nil
	})
	if err != nil && len(frames) > 0 && frames[len(frames)-1].Type == FrameDone {
		err = nil
	}
	if err != nil {
		t.Fatalf("following %s on %s: %v (got %d frames)", id, m.nodeID, err, len(frames))
	}
	return frames
}

// TestLeaseAcquireIsExclusive: nodes racing for one free lease — each
// trying acquireLease, then the steal path a scanner takes on an expired
// lease — end with exactly one holder. A lease visible before its record
// is written reads as corrupt, counts as expired, and is stolen while its
// creator still believes it holds it.
func TestLeaseAcquireIsExclusive(t *testing.T) {
	dir := t.TempDir()
	const rounds = 500
	doubles := 0
	for round := 0; round < rounds; round++ {
		path := filepath.Join(dir, fmt.Sprintf("dig-%d.lease", round))
		var holders atomic.Int32
		var wg sync.WaitGroup
		for n := 0; n < 3; n++ {
			node := fmt.Sprintf("node-%d", n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if acquireLease(path, node, "x") ||
					leaseExpired(path, time.Minute) && reclaimLease(path, node, time.Minute) && acquireLease(path, node, "x") {
					holders.Add(1)
				}
			}()
		}
		wg.Wait()
		if holders.Load() > 1 {
			doubles++
		}
	}
	if doubles > 0 {
		t.Fatalf("%d of %d rounds ended with two lease holders", doubles, rounds)
	}
}

// TestClusterFaultInjectionStealResume is the cluster's headline proof:
// the node executing a sweep is hard-killed mid-run (no shutdown hooks —
// the record stays "running" on disk under a lease that simply stops
// heartbeating), another node reclaims the expired lease and resumes the
// job from its journal, and the finished artifacts are byte-identical to
// an uninterrupted run. Crash recovery must not cost even one byte of
// result fidelity.
func TestClusterFaultInjectionStealResume(t *testing.T) {
	store := t.TempDir()
	// SnapshotEvery matters here: the interrupt poll runs at snapshot
	// boundaries, so the killed node's in-flight task aborts promptly and
	// drops unjournaled — the exact picture a crashed process leaves.
	spec := &experiment.Spec{
		Scenario: "compress", Lambdas: []float64{3, 4}, Sizes: []int{24},
		Engines: []string{"chain"}, Iterations: 600_000, SnapshotEvery: 50_000,
		Reps: 3, Seed: 9,
	}

	a := openNode(t, clusterOpts(store, "node-a"))
	job, err := a.Submit(JobRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(job.ID, "-node-a") {
		t.Fatalf("cluster job ID %q not node-scoped", job.ID)
	}

	// Two more nodes join the same store. While node a heartbeats they
	// must not touch its job.
	b := openNode(t, clusterOpts(store, "node-b"))
	c := openNode(t, clusterOpts(store, "node-c"))

	// Wait until at least one task is journaled, then pull the plug on a.
	digestDir := filepath.Join(store, "exp", job.Digest[:16])
	journal := filepath.Join(digestDir, "journal.jsonl")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(journal); err == nil && bytes.Count(raw, []byte("\n")) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no journal entries before deadline")
		}
		time.Sleep(time.Millisecond)
	}
	if j, _ := a.Job(job.ID); terminal(j.State) {
		t.Skipf("sweep finished before the kill (state %s); steal not exercised", j.State)
	}
	a.kill()

	// A crashed node leaves its running record and stale lease behind;
	// nobody rewrites them on its behalf.
	if j, err := b.readRecord(job.ID); err != nil || j.State != StateRunning || j.Owner != "node-a" {
		t.Fatalf("store record after kill: %+v, %v (want running, owner node-a)", j, err)
	}

	// b or c steals the lease once it expires and finishes the sweep.
	done := waitJob(t, b, job.ID, StateDone, 60*time.Second)
	if done.Owner != "node-b" && done.Owner != "node-c" {
		t.Fatalf("finished owner %q, want the stealing node", done.Owner)
	}
	if done.TasksRun+done.TasksReplayed != 6 || done.TasksTotal != 6 {
		t.Fatalf("task accounting off after steal-resume: %+v", done)
	}
	if stolen := counterVal(b, "leases_stolen") + counterVal(c, "leases_stolen"); stolen < 1 {
		t.Fatalf("no node counted a lease steal (b=%d c=%d)",
			counterVal(b, "leases_stolen"), counterVal(c, "leases_stolen"))
	}
	comp, ok := readCompletion(digestDir, job.Digest)
	if !ok {
		t.Fatal("resumed sweep missing COMPLETE marker")
	}
	if comp.Owner != done.Owner {
		t.Fatalf("COMPLETE owner %q, job owner %q", comp.Owner, done.Owner)
	}

	// The resumed artifacts equal an uninterrupted single-node run, byte
	// for byte — results.jsonl and results.csv both.
	fresh := t.TempDir()
	if _, err := experiment.Run(context.Background(), *spec, experiment.RunOptions{Dir: fresh, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{experiment.ResultsJSONL, experiment.ResultsCSV} {
		got, err := os.ReadFile(filepath.Join(digestDir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s after steal-resume differs from an uninterrupted run", name)
		}
	}

	// Any node answers for the job, and the survivor that did NOT run it
	// streams the full cross-node frame history off the mirror, monotone
	// to the done frame.
	observer := c
	if done.Owner == "node-c" {
		observer = b
	}
	if j, ok := observer.Job(job.ID); !ok || j.State != StateDone || j.Owner != done.Owner {
		t.Fatalf("observer node view: %+v, ok=%v", j, ok)
	}
	frames := collectFrames(t, observer, job.ID, 30*time.Second)
	last := -1
	taskFrames := 0
	for _, f := range frames {
		if f.Seq <= last {
			t.Fatalf("frame seq not monotone across the steal: %d after %d", f.Seq, last)
		}
		last = f.Seq
		if f.Type == FrameTask {
			taskFrames++
		}
	}
	if frames[len(frames)-1].State != StateDone {
		t.Fatalf("terminal frame: %+v", frames[len(frames)-1])
	}
	// Every executed task produced one mirror frame; replayed tasks do not
	// re-emit, so the cross-node history counts each of the 6 tasks at
	// most once, and at least the stealing node's own executions.
	if taskFrames > 6 || taskFrames < done.TasksRun {
		t.Fatalf("%d task frames in mirror history (stealer ran %d)", taskFrames, done.TasksRun)
	}

	// A duplicate submission anywhere in the cluster is a cache hit: zero
	// additional simulation work on any node.
	tasksBefore := counterVal(a, "tasks_run") + counterVal(b, "tasks_run") + counterVal(c, "tasks_run")
	if tasksBefore != 6 {
		t.Fatalf("cluster ran %d tasks for a 6-task sweep", tasksBefore)
	}
	dup, err := c.Submit(JobRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	dupDone := waitJob(t, c, dup.ID, StateDone, 30*time.Second)
	if !dupDone.CacheHit {
		t.Fatalf("duplicate submission should cache-hit: %+v", dupDone)
	}
	tasksAfter := counterVal(a, "tasks_run") + counterVal(b, "tasks_run") + counterVal(c, "tasks_run")
	if tasksAfter != tasksBefore {
		t.Fatalf("cache hit did simulation work: %d → %d", tasksBefore, tasksAfter)
	}
}

// TestClusterCacheHitAtSubmit: a job done through node a and resubmitted
// through node b is done in b's POST body, owned by b, and never leased;
// either node streams it as the cold job's frames replayed from the store.
func TestClusterCacheHitAtSubmit(t *testing.T) {
	store := t.TempDir()
	a := openNode(t, clusterOpts(store, "node-a"))
	b := openNode(t, clusterOpts(store, "node-b"))
	front := &Server{mgr: b, mux: http.NewServeMux()}
	front.routes()
	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)

	req := JobRequest{Run: &runner.Options{N: 8, Lambda: 4, Iterations: 3000, Seed: 9, SnapshotEvery: 1000}}
	cold, err := a.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, a, cold.ID, StateDone, 30*time.Second)
	coldFrames := collectFrames(t, a, cold.ID, 30*time.Second)
	claimed := counterVal(a, "leases_claimed") + counterVal(b, "leases_claimed")

	hit := submit(t, ts.URL, req)
	if hit.State != StateDone || !hit.CacheHit || hit.Owner != "node-b" {
		t.Fatalf("resubmission's POST body on node b: %+v, want done, cached, owned by node-b", hit)
	}
	if _, err := os.Stat(b.jobLeasePath(hit.ID)); !os.IsNotExist(err) {
		t.Fatalf("lease file for the cache hit: %v", err)
	}
	if n := counterVal(a, "leases_claimed") + counterVal(b, "leases_claimed"); n != claimed {
		t.Fatalf("leases_claimed %d → %d for a cache hit", claimed, n)
	}
	for _, m := range []*Manager{a, b} {
		frames := collectFrames(t, m, hit.ID, 30*time.Second)
		if len(frames) != len(coldFrames) {
			t.Fatalf("%s streams %d frames, cold job %d", m.nodeID, len(frames), len(coldFrames))
		}
		for i, f := range frames[:len(frames)-1] {
			if f.Seq != coldFrames[i].Seq || *f.Snapshot != *coldFrames[i].Snapshot {
				t.Fatalf("%s: frame %d differs from the cold job's", m.nodeID, i)
			}
		}
		if last := frames[len(frames)-1]; last.State != StateDone || !last.CacheHit {
			t.Fatalf("%s: done frame %+v", m.nodeID, last)
		}
	}
}

// TestClusterRemoteCancel: a cancel issued on a node that does not own the
// job reaches the owner through the store (a cancel marker its heartbeat
// polls) and terminates the job cluster-wide.
func TestClusterRemoteCancel(t *testing.T) {
	store := t.TempDir()
	a := openNode(t, clusterOpts(store, "node-a"))
	b := openNode(t, clusterOpts(store, "node-b"))

	spec := &experiment.Spec{
		Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{60},
		Engines: []string{"chain"}, Iterations: 40_000_000, SnapshotEvery: 100_000,
		Reps: 2, Seed: 1,
	}
	job, err := a.Submit(JobRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, b, job.ID, StateRunning, 30*time.Second)
	if _, err := b.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	canceled := waitJob(t, b, job.ID, StateCanceled, 30*time.Second)
	if canceled.FinishedAt == nil {
		t.Fatalf("canceled job missing FinishedAt: %+v", canceled)
	}
	// The canceller's node streams the terminal frame from the mirror.
	frames := collectFrames(t, b, job.ID, 30*time.Second)
	if last := frames[len(frames)-1]; last.Type != FrameDone || last.State != StateCanceled {
		t.Fatalf("terminal frame on the cancelling node: %+v", last)
	}
	// The lease and cancel marker are gone: nothing for scanners to chew on.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, lerr := os.Stat(a.jobLeasePath(job.ID))
		_, merr := os.Stat(a.cancelMarkPath(job.ID))
		if os.IsNotExist(lerr) && os.IsNotExist(merr) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease/cancel marker linger after cancel: %v, %v", lerr, merr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionControl: full queues and per-client quotas shed with 429 and
// count requests_shed, instead of admitting work the node cannot start.
func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxActive: 1, ClientQuota: 1})
	base := ts.URL

	// The cancel below interrupts the hog's running tasks: the interrupt
	// poll runs at snapshot boundaries and every runner.PollEvery
	// iterations.
	slow := &experiment.Spec{
		Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{60},
		Engines: []string{"chain"}, Iterations: 40_000_000, SnapshotEvery: 100_000,
		Reps: 2, Seed: 3,
	}
	first := submit(t, base, JobRequest{Spec: slow})

	body, _ := json.Marshal(JobRequest{Spec: smallSweep(50)})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 512)
	n, _ := resp.Body.Read(raw)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d body %s, want 429", resp.StatusCode, raw[:n])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(string(raw[:n]), "capacity") {
		t.Fatalf("shed error body: %s", raw[:n])
	}
	if m := metricsMap(t, base); m["requests_shed"] < 1 {
		t.Fatalf("requests_shed = %d after a shed", m["requests_shed"])
	}

	// Cancel the hog; capacity frees and the same request is accepted.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+first.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, base, first.ID, StateCanceled)
	ok := submit(t, base, JobRequest{Spec: smallSweep(50)})
	waitState(t, base, ok.ID, StateDone)
}

// TestClientQuota: the per-client limit is keyed on X-Sops-Client — one
// client at its quota does not block another.
func TestClientQuota(t *testing.T) {
	_, ts := newTestServer(t, Options{ClientQuota: 1, Jobs: 1})
	base := ts.URL
	slow := &experiment.Spec{
		Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{60},
		Engines: []string{"chain"}, Iterations: 40_000_000, SnapshotEvery: 100_000,
		Reps: 2, Seed: 5,
	}
	post := func(client string, spec *experiment.Spec) (*http.Response, Job) {
		body, _ := json.Marshal(JobRequest{Spec: spec})
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if client != "" {
			req.Header.Set(ClientHeader, client)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var job Job
		_ = json.NewDecoder(resp.Body).Decode(&job)
		return resp, job
	}
	resp, hog := post("alice", slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	if hog.Client != "alice" {
		t.Fatalf("job client %q, want alice", hog.Client)
	}
	if resp, _ := post("alice", smallSweep(60)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over quota: status %d, want 429", resp.StatusCode)
	}
	// A different client still gets in (it queues behind the hog).
	if resp, _ := post("bob", smallSweep(60)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob blocked by alice's quota: status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+hog.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, base, hog.ID, StateCanceled)
	// Terminal jobs release their quota slot: alice submits again.
	if resp, _ := post("alice", smallSweep(61)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice still quota-blocked after cancel: status %d", resp.StatusCode)
	}
}

// TestClusterGracefulHandoff: a node Closed (not killed) mid-sweep releases
// its lease immediately; a peer resumes without waiting out the TTL and the
// journaled tasks replay instead of rerunning.
func TestClusterGracefulHandoff(t *testing.T) {
	store := t.TempDir()
	spec := &experiment.Spec{
		Scenario: "compress", Lambdas: []float64{3, 4}, Sizes: []int{24},
		Engines: []string{"chain"}, Iterations: 600_000, Reps: 3, Seed: 11,
	}
	a := openNode(t, clusterOpts(store, "node-a"))
	job, err := a.Submit(JobRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	digestDir := filepath.Join(store, "exp", job.Digest[:16])
	journal := filepath.Join(digestDir, "journal.jsonl")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(journal); err == nil && bytes.Count(raw, []byte("\n")) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no journal entries before deadline")
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if j, _ := a.Job(job.ID); terminal(j.State) {
		t.Skipf("sweep finished before close (state %s); handoff not exercised", j.State)
	}
	if _, err := os.Stat(a.jobLeasePath(job.ID)); !os.IsNotExist(err) {
		t.Fatalf("graceful close left the job lease behind: %v", err)
	}

	b := openNode(t, clusterOpts(store, "node-b"))
	done := waitJob(t, b, job.ID, StateDone, 60*time.Second)
	if done.Owner != "node-b" {
		t.Fatalf("owner %q after handoff, want node-b", done.Owner)
	}
	if done.TasksReplayed < 1 {
		t.Fatalf("handoff replayed no journaled tasks: %+v", done)
	}
	if counterVal(b, "leases_claimed") < 1 {
		t.Fatal("resuming node counted no lease claim")
	}
}

// TestMirrorCutsTornTailOnOpen: an owner that resumes a job whose frame
// mirror ends in a torn record (the previous owner died mid-append)
// appends after the last complete record, so the log still splits and
// the done frame replays. mirrorDone opens the same way.
func TestMirrorCutsTornTailOnOpen(t *testing.T) {
	m := openNode(t, clusterOpts(t.TempDir(), "a"))
	rec := func(f Frame) []byte {
		line, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return frame.Raw(line)
	}
	torn := func(id string) {
		log := frame.Header()
		for seq := range 3 {
			log = append(log, rec(Frame{Type: FrameSnapshot, Seq: seq})...)
		}
		if err := os.MkdirAll(filepath.Dir(m.mirrorPath(id)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(m.mirrorPath(id), log[:len(log)-5], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(id string) {
		t.Helper()
		raw, err := os.ReadFile(m.mirrorPath(id))
		if err != nil {
			t.Fatal(err)
		}
		if recs, err := frame.Split(raw); err != nil || len(recs) != 3 {
			t.Fatalf("%s: split %d records, %v; want 3", id, len(recs), err)
		}
		if n, sawDone := m.replayMirror(newStream(), id); n != 3 || !sawDone {
			t.Fatalf("%s: replayed %d records, done %v; want 3 and a done frame", id, n, sawDone)
		}
	}

	torn("resumed")
	f, recs, err := m.openMirror("resumed")
	if err != nil {
		t.Fatal(err)
	}
	if recs != 2 {
		t.Fatalf("openMirror counted %d records, want 2", recs)
	}
	if _, err := f.Write(rec(Frame{Type: FrameDone, Seq: 2, State: StateDone})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	check("resumed")

	torn("canceled")
	m.mirrorDone("canceled", Frame{Type: FrameDone, State: StateCanceled})
	check("canceled")
}
