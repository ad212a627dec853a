package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"sops/internal/client"
	"sops/internal/runner"
	"sops/internal/serve"
)

// -update rewrites the client golden files from the current bytes:
//
//	go test ./internal/client -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// newServer starts a serve.Server over a fresh store and returns a client
// for it.
func newServer(t *testing.T, opt serve.Options) *client.Client {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	s, err := serve.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return client.New(ts.URL)
}

// smallRun is the fixed deterministic workload of these tests.
func smallRun(seed uint64, svg bool) serve.JobRequest {
	return serve.JobRequest{Run: &runner.Options{
		N: 8, Lambda: 4, Iterations: 2000, Seed: seed, SnapshotEvery: 500,
	}, SVG: svg}
}

// runToDone submits the request and waits for completion.
func runToDone(t *testing.T, c *client.Client, req serve.JobRequest) serve.Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitTerminal(ctx, job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != serve.StateDone {
		t.Fatalf("job %s finished %s (error %q)", done.ID, done.State, done.Error)
	}
	return done
}

// collectRaw gathers the raw NDJSON lines (copied) a stream or replay
// callback sees.
func collectRaw(lines *[][]byte) func(serve.Frame, []byte) error {
	return func(_ serve.Frame, raw []byte) error {
		*lines = append(*lines, append([]byte(nil), raw...))
		return nil
	}
}

// TestClientEndToEnd drives the full /v1 surface through the typed client:
// submit, wait, list, fetch, result, scenarios, health, delete — and typed
// errors for the misses.
func TestClientEndToEnd(t *testing.T) {
	c := newServer(t, serve.Options{})
	ctx := context.Background()

	done := runToDone(t, c, smallRun(42, false))
	if done.Kind != serve.KindRun || done.Digest == "" {
		t.Fatalf("job record %+v", done)
	}

	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 1 || jobs[0].ID != done.ID {
		t.Fatalf("Jobs = %v, %v", jobs, err)
	}

	data, ct, err := c.Result(ctx, done.ID)
	if err != nil || ct != "application/json" {
		t.Fatalf("Result: ct %q, err %v", ct, err)
	}
	var res runner.Result
	if err := json.Unmarshal(data, &res); err != nil || res.N != 8 {
		t.Fatalf("result document: %v (%s)", err, data)
	}

	scenarios, err := c.Scenarios(ctx)
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("Scenarios = %v, %v", scenarios, err)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}

	// Typed misses: the envelope surfaces as *client.Error.
	_, err = c.Job(ctx, "j-missing")
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Code != serve.CodeJobNotFound || apiErr.Status != 404 {
		t.Fatalf("missing job error = %v", err)
	}
	if !client.IsNotFound(err) {
		t.Fatalf("IsNotFound(%v) = false", err)
	}
	if _, err := c.Timeline(ctx, done.ID, "png"); err == nil {
		t.Fatal("Timeline accepted a bogus format")
	}

	job, deleted, err := c.Delete(ctx, done.ID)
	if err != nil || !deleted || job.ID != done.ID {
		t.Fatalf("Delete = %+v, %v, %v", job, deleted, err)
	}
	if _, err := c.Job(ctx, done.ID); !client.IsNotFound(err) {
		t.Fatalf("job survives deletion: %v", err)
	}
}

// TestIsBusy: both admission sheds — the 429 envelope with node_busy and
// with quota_exceeded — satisfy IsBusy and not IsNotFound. The server
// answers the first submission with one code and the second with the
// other.
func TestIsBusy(t *testing.T) {
	codes := []string{serve.CodeNodeBusy, serve.CodeQuotaExceeded}
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code := codes[int(calls.Add(1)-1)%len(codes)]
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(map[string]serve.APIError{"error": {Code: code, Message: "shed"}})
	}))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	for _, want := range codes {
		_, err := c.Submit(context.Background(), smallRun(1, false))
		var apiErr *client.Error
		if !errors.As(err, &apiErr) || apiErr.Code != want || apiErr.Status != http.StatusTooManyRequests {
			t.Fatalf("Submit error = %v, want a 429 %s", err, want)
		}
		if !client.IsBusy(err) {
			t.Errorf("IsBusy(%v) = false", err)
		}
		if client.IsNotFound(err) {
			t.Errorf("IsNotFound(%v) = true", err)
		}
	}
}

// TestReplayDeterminism is the replay golden: the stored frame history a
// completed job replays — through GET /v1/jobs/{id}/frames — is
// byte-for-byte the NDJSON the live stream carried, SVG renders included.
func TestReplayDeterminism(t *testing.T) {
	c := newServer(t, serve.Options{})
	ctx := context.Background()

	job, err := c.Submit(ctx, smallRun(42, true))
	if err != nil {
		t.Fatal(err)
	}
	// Follow live: Stream returns when the done frame closes the log.
	var live [][]byte
	if err := c.Stream(ctx, job.ID, collectRaw(&live)); err != nil {
		t.Fatal(err)
	}
	if len(live) < 3 {
		t.Fatalf("only %d live frames", len(live))
	}
	var svgFrames int
	for _, line := range live {
		var f serve.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatal(err)
		}
		if f.Type == serve.FrameSnapshot && f.Snapshot.SVG != "" {
			svgFrames++
		}
	}
	if svgFrames == 0 {
		t.Fatal("no SVG-bearing snapshot frames in the live stream")
	}

	var replay [][]byte
	if err := c.Replay(ctx, job.ID, 0, 0, collectRaw(&replay)); err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(live) {
		t.Fatalf("replayed %d frames, streamed %d", len(replay), len(live))
	}
	for i := range live {
		if !bytes.Equal(live[i], replay[i]) {
			t.Fatalf("frame %d replays differently:\nlive:   %s\nreplay: %s", i, live[i], replay[i])
		}
	}

	// Range reads slice the same bytes by seq: [1, 3).
	var window [][]byte
	if err := c.Replay(ctx, job.ID, 1, 3, collectRaw(&window)); err != nil {
		t.Fatal(err)
	}
	if len(window) != 2 || !bytes.Equal(window[0], live[1]) || !bytes.Equal(window[1], live[2]) {
		t.Fatalf("windowed replay [1,3): %d frames", len(window))
	}

	// Replaying a running job is a typed conflict, not a hang.
	slow, err := c.Submit(ctx, serve.JobRequest{Run: &runner.Options{
		N: 30, Lambda: 4, Iterations: 80_000_000, Seed: 7,
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Replay(ctx, slow.ID, 0, 0, collectRaw(new([][]byte)))
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Code != serve.CodeJobNotComplete || apiErr.Status != 409 {
		t.Fatalf("replay of a running job: %v", err)
	}
	if _, _, err := c.Delete(ctx, slow.ID); err != nil {
		t.Fatal(err)
	}
}

// TestClusterReplayMirror: a job run by node-a replays byte-identically
// from node-b, which never executed it — node-b serves the history from
// the mirrored frame log in the shared store.
func TestClusterReplayMirror(t *testing.T) {
	store := t.TempDir()
	clusterOpt := func(node string) serve.Options {
		return serve.Options{
			Dir: store, Jobs: 1, TaskWorkers: 1, QueueDepth: 16, NodeID: node,
			LeaseTTL: time.Minute, Heartbeat: time.Second, ScanEvery: time.Second,
		}
	}
	a := newServer(t, clusterOpt("node-a"))
	b := newServer(t, clusterOpt("node-b"))
	ctx := context.Background()

	done := runToDone(t, a, smallRun(42, true))

	var fromOwner, fromMirror [][]byte
	if err := a.Replay(ctx, done.ID, 0, 0, collectRaw(&fromOwner)); err != nil {
		t.Fatal(err)
	}
	if err := b.Replay(ctx, done.ID, 0, 0, collectRaw(&fromMirror)); err != nil {
		t.Fatalf("replay from the non-owner node: %v", err)
	}
	if len(fromOwner) < 3 || len(fromMirror) != len(fromOwner) {
		t.Fatalf("owner replayed %d frames, mirror %d", len(fromOwner), len(fromMirror))
	}
	for i := range fromOwner {
		if !bytes.Equal(fromOwner[i], fromMirror[i]) {
			t.Fatalf("frame %d differs across nodes:\nowner:  %s\nmirror: %s", i, fromOwner[i], fromMirror[i])
		}
	}
}

// TestTimelineCSVGolden pins the timeline.csv bytes of the fixed workload
// and checks the artifact is cached: the second fetch serves identical
// stored bytes.
func TestTimelineCSVGolden(t *testing.T) {
	c := newServer(t, serve.Options{})
	ctx := context.Background()
	done := runToDone(t, c, smallRun(42, false))

	csvData, err := c.Timeline(ctx, done.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "timeline.csv.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, csvData, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", goldenPath, len(csvData))
	} else {
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden %s (run with -update to create): %v", goldenPath, err)
		}
		if !bytes.Equal(csvData, want) {
			t.Errorf("timeline.csv drifted from its golden bytes\n--- got ---\n%s--- want ---\n%s", csvData, want)
		}
	}

	again, err := c.Timeline(ctx, done.ID, "csv")
	if err != nil || !bytes.Equal(csvData, again) {
		t.Fatalf("cached timeline differs from the computed one (err %v)", err)
	}
	svgData, err := c.Timeline(ctx, done.ID, "svg")
	if err != nil || !bytes.HasPrefix(svgData, []byte("<svg")) {
		t.Fatalf("timeline.svg: err %v, %d bytes", err, len(svgData))
	}
}
