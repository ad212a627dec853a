package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sops/internal/experiment"
)

// The content-addressed result store. Layout under the store directory:
//
//	jobs/<id>.json     one persisted Job record per submission
//	exp/<digest16>/    sweep workspace: the experiment directory
//	                   (spec.json, journal.jsonl, results.jsonl,
//	                   results.csv, BENCH_*.json) plus COMPLETE
//	run/<digest16>/    run workspace: result.json, frames.bin (binary
//	                   snapshot frame log, absent for runs without
//	                   snapshots), COMPLETE
//
// A workload's digest is a SHA-256 over a versioned canonical encoding of
// its normalized spec/options (experiment.Digest for sweeps, runDigest
// below for runs), so the digest covers every axis value, budget, and seed
// — everything that can change results — and nothing that cannot (worker
// counts, progress sinks, callbacks). COMPLETE is written only after a
// fully successful execution; its presence is the cache-hit predicate, and
// the result files next to it are then served byte-identically without any
// simulation work. Interrupted sweeps have a journal but no COMPLETE: a
// resubmission (or restart) resumes them through the journal instead.

// completeMarker is the per-workspace completion marker file.
const completeMarker = "COMPLETE"

// runDigestVersion versions the run-job digest; bump on any change to the
// canonical runner.Options encoding or run semantics.
const runDigestVersion = "sops-run-digest-v1"

// completion is the COMPLETE file's content: enough to rebuild a cached
// job's summary without re-reading the journal.
type completion struct {
	Digest      string `json:"digest"`
	TasksTotal  int    `json:"tasks_total,omitempty"`
	TasksFailed int    `json:"tasks_failed,omitempty"`
	ResultFile  string `json:"result_file"`
	// Owner records the cluster node that finished the workload — the
	// provenance of a cache entry. Empty for single-node stores, keeping
	// their COMPLETE bytes identical to the pre-cluster format.
	Owner string `json:"owner,omitempty"`
}

// serve marks job as served from the workspace c completes, taking its
// task counts from c.
func (c completion) serve(job *Job) {
	job.CacheHit = true
	if c.TasksTotal > 0 {
		job.TasksTotal = c.TasksTotal
	}
	job.TasksFailed = c.TasksFailed
}

// jobDigest computes the content address of a normalized request: a
// version line and the canonical JSON of the normalized spec or options.
// A sweep's digest is experiment.Digest's, taken from the spec normalize
// already produced instead of normalizing it again.
func jobDigest(req JobRequest) (string, error) {
	var version string
	var canon []byte
	var err error
	switch req.Kind {
	case KindSweep:
		version = experiment.DigestVersion
		canon, err = json.Marshal(*req.Spec)
	case KindRun:
		version = runDigestVersion
		canon, err = json.Marshal(*req.Run)
	default:
		return "", fmt.Errorf("serve: unknown job kind %q", req.Kind)
	}
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, _ = io.WriteString(h, version+"\n")
	_, _ = h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// workspace returns the store directory of a job's workload. Every job of
// one digest shares it: that sharing is the cache.
func (m *Manager) workspace(job *Job) string {
	sub := "exp"
	if job.Kind == KindRun {
		sub = "run"
	}
	return filepath.Join(m.dir, sub, job.Digest[:16])
}

// resultFile returns the served result artifact of a job kind.
func resultFile(kind string) string {
	if kind == KindRun {
		return "result.json"
	}
	return experiment.ResultsJSONL
}

// readCompletion loads a workspace's COMPLETE marker and verifies it names
// the expected full digest (the directory key is only a 16-hex prefix).
// The bool reports whether the workspace holds a completed, servable
// result for exactly that digest.
func readCompletion(dir, wantDigest string) (completion, bool) {
	raw, err := os.ReadFile(filepath.Join(dir, completeMarker))
	if err != nil {
		return completion{}, false
	}
	var c completion
	if err := json.Unmarshal(raw, &c); err != nil {
		return completion{}, false
	}
	if c.Digest != wantDigest {
		return completion{}, false
	}
	if _, err := os.Stat(filepath.Join(dir, c.ResultFile)); err != nil {
		return completion{}, false
	}
	return c, true
}

// writeCompletion atomically publishes a workspace's COMPLETE marker. The
// rename inside writeFileAtomic is the commit point: a crash before it
// leaves the workspace resumable, never half-cached.
func writeCompletion(dir string, c completion) error {
	raw, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, completeMarker), append(raw, '\n'))
}

// writeFileAtomic writes path via a temp file of its own next to it and a
// rename, the commit point. Concurrent writers of one path never share a
// temp file, so each rename publishes one whole payload.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if err = f.Chmod(0o644); err == nil {
		_, err = f.Write(data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // best effort: the write has already failed
	}
	return err
}

// errNoResult reports a job whose workspace holds no result artifact:
// the job has not finished, failed, was canceled, or its workspace is
// gone.
var errNoResult = errors.New("no stored result")

// readResult opens a job's stored result artifact.
func (m *Manager) readResult(job *Job) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(m.workspace(job), resultFile(job.Kind)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("serve: job %s (%s) has %w", job.ID, job.State, errNoResult)
	}
	return data, err
}
