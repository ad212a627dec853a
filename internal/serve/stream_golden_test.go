package serve

import (
	"fmt"
	"testing"

	"sops/internal/experiment"
	"sops/internal/runner"
)

// streamGoldenCases enumerates the engine × rule matrix (plus the SVG and
// sweep variants) whose NDJSON stream bytes are pinned under
// testdata/golden/streams/. Every case is fully deterministic: fixed seed,
// sequential execution, snapshot cadence that divides the budget.
func streamGoldenCases() []struct {
	Name string
	Req  JobRequest
} {
	run := func(engine, rule string, mut func(*runner.Options)) JobRequest {
		o := &runner.Options{
			N: 30, Lambda: 4, Iterations: 400, Seed: 7,
			Engine: engine, Rule: rule, SnapshotEvery: 100,
		}
		if mut != nil {
			mut(o)
		}
		return JobRequest{Run: o}
	}
	return []struct {
		Name string
		Req  JobRequest
	}{
		{"chain-compression", run("chain", "", nil)},
		{"chain-align", run("chain", "align", nil)},
		{"kmc-compression", run("kmc", "", nil)},
		{"kmc-align", run("kmc", "align", nil)},
		{"amoebot-compression", run("amoebot", "", nil)},
		{"amoebot-align", run("amoebot", "", func(o *runner.Options) { o.Rule = "align" })},
		{"chain-compression-svg", func() JobRequest {
			r := run("chain", "", func(o *runner.Options) { o.N = 12; o.Iterations = 200 })
			r.SVG = true
			return r
		}()},
		{"sweep-chain-compression", JobRequest{Spec: &experiment.Spec{
			Scenario:      "compress",
			Lambdas:       []float64{4},
			Sizes:         []int{10},
			Engines:       []string{"chain"},
			Iterations:    3000,
			SnapshotEvery: 1000,
			Reps:          1,
			Seed:          11,
		}}},
	}
}

// TestGoldenStreams pins the exact NDJSON bytes of GET /v1/jobs/{id}/stream
// for every engine × rule combination. These bytes are the streaming
// contract: replay, cross-node mirror tails, and the binary-frame transcode
// path all promise byte-identity to them. Regenerate with -update only on a
// deliberate frame-format change.
func TestGoldenStreams(t *testing.T) {
	for _, tc := range streamGoldenCases() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{TaskWorkers: 1})
			job := submit(t, ts.URL, tc.Req)
			waitState(t, ts.URL, job.ID, StateDone)
			checkGolden(t, fmt.Sprintf("streams/%s.ndjson", tc.Name), streamBytes(t, ts.URL, job.ID))
		})
	}
}
