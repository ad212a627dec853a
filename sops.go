package sops

import (
	"context"
	"math"

	"sops/internal/client"
	"sops/internal/experiment"
	"sops/internal/metrics"
	"sops/internal/runner"
	"sops/internal/serve"
)

// StartShape selects the initial configuration of a run.
type StartShape = runner.StartShape

// Supported starting shapes.
const (
	// StartLine places the particles in a straight line: the maximum-
	// perimeter start used in the paper's simulations (Figs 2, 10).
	StartLine = runner.StartLine
	// StartSpiral places the particles in the minimum-perimeter hexagonal
	// spiral.
	StartSpiral = runner.StartSpiral
	// StartRandom grows a random connected configuration (Eden growth),
	// possibly containing holes.
	StartRandom = runner.StartRandom
	// StartTree grows a random induced tree: maximum perimeter, no holes.
	StartTree = runner.StartTree
)

// Engine names for Options.Engine and the experiment engine axis. Chain and
// KMC simulate the same sequential process — Metropolis proposals versus
// rejection-free event sampling, equal in distribution at equal step counts;
// Amoebot is the distributed Algorithm A.
const (
	EngineChain   = runner.EngineChain
	EngineKMC     = runner.EngineKMC
	EngineAmoebot = runner.EngineAmoebot
)

// Rule names for Options.Rule and the experiment rule axis. A rule is a
// compiled (guard, Hamiltonian) pair — which local moves are admissible and
// how the Metropolis filter prices them; every engine runs every rule.
const (
	// RuleCompression is the paper's chain M: π(σ) ∝ λ^{e(σ)}.
	RuleCompression = runner.RuleCompression
	// RuleAlignment is the oriented-particle alignment chain: per-particle
	// orientation spins, π(σ) ∝ λ^{aligned edges}, rotation moves.
	RuleAlignment = runner.RuleAlignment
	// RuleForage is the foraging chain (Oh–Richa style self-induced phase
	// change): compression's Hamiltonian under a food-driven time-varying,
	// site-dependent bias configured by Options.Forage.
	RuleForage = runner.RuleForage
)

// ForageSpec configures the foraging bias schedule of RuleForage runs:
// food sites, scent radius, exhaustion step, λ_low, and the bias epoch.
type ForageSpec = runner.ForageSpec

// Rules lists every built-in rule name.
func Rules() []string { return runner.Rules() }

// CompressionThreshold returns 2+√2 ≈ 3.414: the paper proves
// α-compression for every λ above it (Theorem 4.5, Corollary 4.6).
func CompressionThreshold() float64 { return 2 + math.Sqrt2 }

// ExpansionThreshold returns (2·N50)^{1/100} ≈ 2.172, where N50 is Jensen's
// benzenoid count quoted in Lemma 5.5: the paper proves β-expansion for
// every 0 < λ below it (Theorem 5.7, Corollary 5.8). The digits match
// enumerate.ExpansionBoundBase, which derives the value from N50 itself.
func ExpansionThreshold() float64 { return 2.1720333289250382 }

// PMin returns the minimum possible perimeter of n particles.
func PMin(n int) int { return metrics.PMin(n) }

// PMax returns the maximum possible perimeter of n particles.
func PMax(n int) int { return metrics.PMax(n) }

// Point is a vertex of the triangular lattice in axial coordinates.
type Point = runner.Point

// Snapshot records the system state at one instant of a run.
type Snapshot = runner.Snapshot

// Result reports a completed run.
type Result = runner.Result

// Options configures a run. The zero value is not runnable: N and Lambda
// must be positive.
type Options = runner.Options

// Compress runs one simulation and returns the final metrics. Options.Engine
// selects the engine: the sequential Markov chain M (the default), the
// rejection-free kMC engine, or the distributed amoebot Algorithm A. All
// implement the same stochastic process (§3.2); distributed runs exercise
// the full expansion/contraction/flag machinery.
func Compress(opts Options) (*Result, error) { return runner.Compress(opts) }

// The experiment API: declarative, resumable scenario sweeps over the
// workload registry. An ExperimentSpec names a scenario and sweep axes;
// RunExperiment fans the (point, rep) grid out over a worker pool,
// journaling every completed task when ExperimentOptions.Dir is set so an
// interrupted sweep resumes exactly where it stopped. `cmd/sops sweep` is a
// thin wrapper around RunExperiment.

// ExperimentSpec declares a scenario sweep; see the field docs in
// internal/experiment.
type ExperimentSpec = experiment.Spec

// ExperimentOptions are execution knobs (journal directory, worker count,
// progress stream) that cannot change experiment results.
type ExperimentOptions = experiment.RunOptions

// ExperimentResult reports a completed experiment: the normalized spec, one
// PointSummary per sweep point, and task accounting.
type ExperimentResult = experiment.Result

// SweepPoint is one sweep coordinate (λ, n, start, engine, crash fraction).
type SweepPoint = experiment.Point

// PointSummary aggregates all replications at one sweep point.
type PointSummary = experiment.PointSummary

// ScenarioInfo names a registered workload.
type ScenarioInfo = experiment.Info

// RunExperiment executes spec. Identical specs yield byte-identical
// summaries regardless of worker count or how often the sweep was
// interrupted and resumed; see internal/experiment for the contract.
func RunExperiment(ctx context.Context, spec ExperimentSpec, opt ExperimentOptions) (*ExperimentResult, error) {
	return experiment.Run(ctx, spec, opt)
}

// Scenarios lists every registered workload, sorted by name.
func Scenarios() []ScenarioInfo { return experiment.List() }

// LoadExperimentSpec reads the spec recorded in an experiment directory,
// enabling `sops resume`-style continuation from code.
func LoadExperimentSpec(dir string) (ExperimentSpec, error) { return experiment.LoadSpec(dir) }

// NormalizeExperimentSpec returns the canonical form of a spec — scenario
// defaults applied, axes filled, validated — the identity Run journals and
// the serve cache digests.
func NormalizeExperimentSpec(spec ExperimentSpec) (ExperimentSpec, error) {
	return experiment.Normalize(spec)
}

// ExperimentDigest returns the content address of a spec: a hex SHA-256
// over a versioned canonical encoding of the normalized spec. Equal digests
// guarantee byte-identical PointSummaries; the `sops serve` result cache is
// keyed on it.
func ExperimentDigest(spec ExperimentSpec) (string, error) { return experiment.Digest(spec) }

// The serve API: `sops serve` as a library. A JobServer is an http.Handler
// exposing the job manager (bounded pool, per-job cancellation, journal-
// backed restart resume), the NDJSON snapshot stream, and the content-
// addressed result cache over a store directory.

// ServeOptions configures a JobServer; see internal/serve.Options.
type ServeOptions = serve.Options

// JobServer is the simulation service: POST /v1/jobs, streaming, cache.
type JobServer = serve.Server

// NewJobServer opens (or resumes) the store directory and starts the job
// pool behind a ready-to-mount handler. Close it to shut the pool down;
// incomplete sweeps journal and resume on the next NewJobServer.
func NewJobServer(opt ServeOptions) (*JobServer, error) { return serve.New(opt) }

// The client API: the typed Go client for a running JobServer — the same
// /v1 contract (API.md) the CLI, curl, and the embedded observatory UI
// speak. Non-2xx responses decode into *APIClientError with the server's
// machine-readable code.

// APIClient talks to one sops serve node.
type APIClient = client.Client

// APIClientError is a non-2xx /v1 response: HTTP status plus the decoded
// error envelope (code, message, job id).
type APIClientError = client.Error

// APIClientOption configures an APIClient (HTTP transport, client id).
type APIClientOption = client.Option

// NewAPIClient returns a client for the node at baseURL.
func NewAPIClient(baseURL string, opts ...APIClientOption) *APIClient {
	return client.New(baseURL, opts...)
}
