// Package serve is the simulation-as-a-service layer: an HTTP job manager
// over the experiment and runner engines. A client POSTs a job — a full
// scenario sweep (experiment.Spec) or a single run (runner.Options) — and
// the manager executes it on a bounded worker pool with per-job
// cancellation, streams mid-run snapshots as NDJSON, persists every sweep
// through the experiment JSONL journal (so a restarted server resumes
// incomplete sweeps exactly like `sops resume`), and serves repeat
// submissions from a content-addressed result cache keyed by the canonical
// spec digest. `sops serve` is the CLI front; DESIGN.md documents the job
// lifecycle, digest scheme, and store layout.
package serve

import (
	"errors"
	"fmt"
	"time"

	"sops/internal/experiment"
	"sops/internal/runner"
)

// Admission-control errors. The HTTP layer maps both to 429 Too Many
// Requests; every shed submission also advances the requests_shed counter.
var (
	// ErrBusy rejects a submission because this node is at capacity: its
	// pending queue is full (single-node mode) or it tracks more active
	// jobs than Options.MaxActive allows.
	ErrBusy = errors.New("serve: node at capacity, retry later")
	// ErrQuota rejects a submission because the client already has
	// Options.ClientQuota active jobs on this node.
	ErrQuota = errors.New("serve: client quota exceeded, retry later")
)

// Job kinds.
const (
	// KindSweep executes an experiment.Spec through the resumable sweep
	// engine: journaled, restart-safe, cacheable.
	KindSweep = "sweep"
	// KindRun executes a single runner.Options simulation: deterministic
	// given its normalized options, cacheable.
	KindRun = "run"
)

// Job states. pending → running → done | failed | canceled. A server
// shutdown returns running jobs to pending so the next Open resumes them.
const (
	StatePending  = "pending"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Terminal reports whether the job has reached a final state (done, failed,
// or canceled).
func (j Job) Terminal() bool { return terminal(j.State) }

// JobRequest is the POST /v1/jobs body. Exactly one of Spec and Run must be
// set; Kind may be omitted (it is inferred from which one is).
type JobRequest struct {
	// Kind is KindSweep or KindRun.
	Kind string `json:"kind,omitempty"`
	// Spec declares a sweep job. It is normalized at submission, so the
	// stored request is the sweep's canonical identity.
	Spec *experiment.Spec `json:"spec,omitempty"`
	// Run declares a single-run job; normalized at submission.
	Run *runner.Options `json:"run,omitempty"`
	// SVG asks run jobs to render an SVG into every streamed snapshot
	// frame (runner.Options.SnapshotSVG spelled at the job level).
	SVG bool `json:"svg,omitempty"`
}

// normalize validates the request, infers Kind, and canonicalizes the
// embedded spec/options in place. It returns the number of tasks the job
// runs, refusing work past maxSubmitN, maxSubmitTasks or maxSubmitFrames
// before anything is allocated for it.
func (r *JobRequest) normalize() (int, error) {
	switch {
	case r.Spec != nil && r.Run != nil:
		return 0, fmt.Errorf("serve: a job is either a sweep or a run, not both")
	case r.Spec != nil:
		if r.Kind == "" {
			r.Kind = KindSweep
		}
		if r.Kind != KindSweep {
			return 0, fmt.Errorf("serve: kind %q does not take a sweep spec", r.Kind)
		}
		norm, err := experiment.Normalize(*r.Spec)
		if err != nil {
			return 0, err
		}
		for _, n := range norm.Sizes {
			if n > maxSubmitN {
				return 0, fmt.Errorf("serve: sweep size %d exceeds the limit of %d particles", n, maxSubmitN)
			}
		}
		tasks, err := experiment.TaskCount(norm)
		if err != nil || tasks > maxSubmitTasks {
			return 0, fmt.Errorf("serve: sweep exceeds the limit of %d tasks", maxSubmitTasks)
		}
		*r.Spec = norm
		return tasks, nil
	case r.Run != nil:
		if r.Kind == "" {
			r.Kind = KindRun
		}
		if r.Kind != KindRun {
			return 0, fmt.Errorf("serve: kind %q does not take run options", r.Kind)
		}
		if r.Run.N > maxSubmitN {
			return 0, fmt.Errorf("serve: run n=%d exceeds the limit of %d particles", r.Run.N, maxSubmitN)
		}
		r.Run.SnapshotFunc = nil
		r.Run.DeltaFunc = nil
		r.Run.Interrupt = nil
		if r.SVG {
			r.Run.SnapshotSVG = true
		}
		norm, err := r.Run.Normalized()
		if err != nil {
			return 0, err
		}
		if n := snapshots(norm); n > maxSubmitFrames {
			return 0, fmt.Errorf("serve: run takes %d snapshots (iterations / snapshot_every), over the limit of %d frames", n, maxSubmitFrames)
		}
		*r.Run = norm
		return 1, nil
	}
	return 0, fmt.Errorf("serve: job request needs a sweep spec or run options")
}

// snapshots returns how many snapshots a normalized run takes: one per
// SnapshotEvery iterations, the last after a partial interval, and none
// when SnapshotEvery is zero or covers the whole budget.
func snapshots(o runner.Options) uint64 {
	if o.SnapshotEvery == 0 || o.SnapshotEvery >= o.Iterations {
		return 0
	}
	n := o.Iterations / o.SnapshotEvery
	if o.Iterations%o.SnapshotEvery != 0 {
		n++
	}
	return n
}

// Job is the REST representation of one submitted job — what GET
// /v1/jobs/{id} returns and what the manager persists per job under
// jobs/<id>.json in the store.
type Job struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Digest is the content address of the job's workload; identical
	// digests are served from the result cache without re-simulation.
	Digest  string     `json:"digest"`
	Request JobRequest `json:"request"`
	// Owner is the cluster node executing (or having executed) the job.
	// Empty in single-node mode and before any node claims the job.
	Owner string `json:"owner,omitempty"`
	// Client is the submitting client's quota key (the X-Sops-Client
	// header); empty when the client sent none.
	Client string `json:"client,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// CacheHit marks a job whose result was served from the store.
	CacheHit bool `json:"cache_hit,omitempty"`

	// Sweep progress. TasksRun counts tasks simulated by this job,
	// TasksReplayed tasks restored from the journal (resume), TasksFailed
	// failed replications.
	TasksTotal    int `json:"tasks_total,omitempty"`
	TasksRun      int `json:"tasks_run,omitempty"`
	TasksReplayed int `json:"tasks_replayed,omitempty"`
	TasksFailed   int `json:"tasks_failed,omitempty"`
	// Frames counts the frames in the job's in-memory stream log. It is 0
	// for terminal jobs whose history has been offloaded to the store
	// (completed run jobs, jobs recovered after a restart) until a client
	// streams them, which rehydrates the log.
	Frames int `json:"frames"`
}
