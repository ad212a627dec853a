package runner_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"sops/internal/runner"
)

// TestSnapshotFuncStreamsInOrder: the snapshot callback sees exactly the
// snapshots that land in Result.Snapshots, live and in iteration order, on
// every engine.
func TestSnapshotFuncStreamsInOrder(t *testing.T) {
	for _, engine := range runner.Engines() {
		var streamed []runner.Snapshot
		res, err := runner.Compress(runner.Options{
			N: 10, Lambda: 4, Iterations: 5000, Seed: 3, Engine: engine,
			SnapshotEvery: 1000,
			SnapshotFunc:  func(s runner.Snapshot) { streamed = append(streamed, s) },
		})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if len(res.Snapshots) != 5 {
			t.Fatalf("%s: %d snapshots, want 5", engine, len(res.Snapshots))
		}
		if len(streamed) != len(res.Snapshots) {
			t.Fatalf("%s: streamed %d, recorded %d", engine, len(streamed), len(res.Snapshots))
		}
		for i, s := range streamed {
			if s != res.Snapshots[i] {
				t.Fatalf("%s: streamed snapshot %d differs from recorded: %+v vs %+v",
					engine, i, s, res.Snapshots[i])
			}
			if s.Iteration != uint64(i+1)*1000 {
				t.Fatalf("%s: snapshot %d at iteration %d", engine, i, s.Iteration)
			}
		}
	}
}

// TestSplitInvariance: a run follows one trajectory however it is split.
// The arena splits a run at every snapshot (and RunPolled every PollEvery
// iterations), so for every engine × rule, and Algorithm A with crash
// faults too, Compress with any SnapshotEvery returns the unsplit run's
// Result, snapshots aside. The budget is a multiple of none of 7, 997 and
// 4096, so the last interval is a partial one and must still run whole.
func TestSplitInvariance(t *testing.T) {
	const budget = 20000
	for _, engine := range runner.Engines() {
		crashes := []float64{0}
		if engine == runner.EngineAmoebot {
			crashes = append(crashes, 0.1)
		}
		for _, crash := range crashes {
			for _, ru := range runner.Rules() {
				name := fmt.Sprintf("%s/%s/crash=%v", engine, ru, crash)
				opts := runner.Options{
					N: 16, Lambda: 4, Iterations: budget, Seed: 11, Start: runner.StartRandom,
					Engine: engine, Rule: ru, CrashFraction: crash,
				}
				whole, err := runner.Compress(opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, every := range []uint64{1, 7, 997, 4096} {
					opts.SnapshotEvery = every
					split, err := runner.Compress(opts)
					if err != nil {
						t.Fatalf("%s every=%d: %v", name, every, err)
					}
					if want := (budget + every - 1) / every; uint64(len(split.Snapshots)) != want {
						t.Errorf("%s every=%d: %d snapshots, want %d", name, every, len(split.Snapshots), want)
					}
					split.Snapshots = nil
					if !reflect.DeepEqual(split, whole) {
						t.Errorf("%s every=%d: split run differs from the unsplit one:\n got %+v\nwant %+v", name, every, split, whole)
					}
				}
			}
		}
	}
}

// TestSnapshotSVG: with SnapshotSVG set every frame carries a rendering,
// and the final frame's SVG equals the result's own rendering (same
// configuration, same code path).
func TestSnapshotSVG(t *testing.T) {
	res, err := runner.Compress(runner.Options{
		N: 8, Lambda: 4, Iterations: 2000, Seed: 1,
		SnapshotEvery: 500, SnapshotSVG: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Snapshots {
		if !strings.HasPrefix(s.SVG, "<svg") {
			t.Fatalf("snapshot %d SVG malformed: %.40q", i, s.SVG)
		}
	}
	last := res.Snapshots[len(res.Snapshots)-1]
	if last.Iteration != 2000 {
		t.Fatalf("last snapshot at %d", last.Iteration)
	}
	if last.SVG != res.SVG() {
		t.Fatal("final snapshot SVG differs from Result.SVG()")
	}
	// Buffer reuse must not alias frames: every snapshot owns its string.
	if len(res.Snapshots) >= 2 && res.Snapshots[0].SVG == last.SVG && res.Snapshots[0].Perimeter != last.Perimeter {
		t.Fatal("snapshot SVGs alias one buffer")
	}
}

// TestSnapshotsOffByDefault: no SnapshotSVG, no SVG bytes.
func TestSnapshotsOffByDefault(t *testing.T) {
	res, err := runner.Compress(runner.Options{
		N: 8, Lambda: 4, Iterations: 1000, Seed: 1, SnapshotEvery: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Snapshots {
		if s.SVG != "" {
			t.Fatal("SVG rendered without SnapshotSVG")
		}
	}
}

// TestInterrupt: the poll stops the run at a snapshot boundary with
// ErrInterrupted; an immediately-true interrupt stops before any work.
func TestInterrupt(t *testing.T) {
	calls := 0
	_, err := runner.Compress(runner.Options{
		N: 10, Lambda: 4, Iterations: 100_000, Seed: 1, SnapshotEvery: 1000,
		Interrupt: func() bool { calls++; return calls > 3 },
	})
	if !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	_, err = runner.Compress(runner.Options{
		N: 10, Lambda: 4, Iterations: 100_000, Seed: 1,
		Interrupt: func() bool { return true },
	})
	if !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("unsnapshotted run: want ErrInterrupted, got %v", err)
	}
}

// TestInterruptPolledMidRun: an unsnapshotted run polls its interrupt every
// runner.PollEvery iterations, so one that fires on the second poll stops
// the run after the first piece on every engine.
func TestInterruptPolledMidRun(t *testing.T) {
	for _, engine := range runner.Engines() {
		calls := 0
		_, err := runner.Compress(runner.Options{
			N: 10, Lambda: 4, Iterations: 3 * runner.PollEvery, Seed: 1, Engine: engine,
			Interrupt: func() bool { calls++; return calls == 2 },
		})
		if !errors.Is(err, runner.ErrInterrupted) || calls != 2 {
			t.Fatalf("%s: err %v after %d polls, want ErrInterrupted on poll 2", engine, err, calls)
		}
	}
}

// TestSnapshotHookDoesNotChangeTrajectory: hooks observe; results with and
// without them are identical.
func TestSnapshotHookDoesNotChangeTrajectory(t *testing.T) {
	base := runner.Options{N: 12, Lambda: 4, Iterations: 8000, Seed: 7, SnapshotEvery: 2000}
	plain, err := runner.Compress(base)
	if err != nil {
		t.Fatal(err)
	}
	hooked := base
	hooked.SnapshotFunc = func(runner.Snapshot) {}
	hooked.Interrupt = func() bool { return false }
	got, err := runner.Compress(hooked)
	if err != nil {
		t.Fatal(err)
	}
	if got.Perimeter != plain.Perimeter || got.Moves != plain.Moves || len(got.Points) != len(plain.Points) {
		t.Fatalf("hooks changed the run: %+v vs %+v", got, plain)
	}
}

// TestOptionsNormalized: the canonical form is explicit, validated, and a
// fixpoint.
func TestOptionsNormalized(t *testing.T) {
	norm, err := (runner.Options{N: 10, Lambda: 4}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Engine != runner.EngineChain || norm.Start != runner.StartLine ||
		norm.Rule != runner.RuleCompression || norm.Iterations != 200*10*10 {
		t.Fatalf("defaults not made explicit: %+v", norm)
	}
	again, err := norm.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", norm) {
		t.Fatalf("Normalized not idempotent: %+v vs %+v", again, norm)
	}

	for name, bad := range map[string]runner.Options{
		"zero N":            {Lambda: 4},
		"zero lambda":       {N: 5},
		"bad shape":         {N: 5, Lambda: 4, Start: "blob"},
		"bad engine":        {N: 5, Lambda: 4, Engine: "warp"},
		"bad rule":          {N: 5, Lambda: 4, Rule: "telepathy"},
		"negative states":   {N: 5, Lambda: 4, RuleStates: -1},
		"crash sequential":  {N: 5, Lambda: 4, CrashFraction: 0.2},
		"crash out of unit": {N: 5, Lambda: 4, Engine: runner.EngineAmoebot, CrashFraction: 1},
		"crash NaN":         {N: 5, Lambda: 4, Engine: runner.EngineAmoebot, CrashFraction: math.NaN()},
	} {
		if _, err := bad.Normalized(); err == nil {
			t.Errorf("%s: Normalized accepted %+v", name, bad)
		}
	}
}

// TestOptionsNormalizedForageJSON pins the wire bytes of a normalized run
// whose forage schedule has two food sites: every schedule default filled
// in, the sites kept in order. These are the bytes serve hashes into a run
// job's cache key.
func TestOptionsNormalizedForageJSON(t *testing.T) {
	norm, err := (runner.Options{N: 12, Lambda: 5, Seed: 3, Rule: runner.RuleForage,
		Forage: &runner.ForageSpec{Radius: 2, Sites: []runner.Point{{X: 0, Y: 0}, {X: 3, Y: -1}}}}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"n":12,"lambda":5,"iterations":28800,"seed":3,"start":"line","engine":"chain","rule":"forage",` +
		`"forage":{"lambda_low":1,"radius":2,"food_steps":60000,"epoch":1024,"sites":[{"x":0,"y":0},{"x":3,"y":-1}]}}`
	if string(raw) != want {
		t.Errorf("normalized options:\n got %s\nwant %s", raw, want)
	}
}

// TestRuleStatesDroppedByStatelessRules: a states override on a stateless
// rule normalizes away, so the run's canonical form (the serve cache key)
// is the one it has without the override; alignment keeps its k, and a
// negative count is refused on every rule.
func TestRuleStatesDroppedByStatelessRules(t *testing.T) {
	for _, name := range []string{runner.RuleCompression, runner.RuleForage} {
		plain, err := (runner.Options{N: 8, Lambda: 4, Rule: name}).Normalized()
		if err != nil {
			t.Fatal(err)
		}
		for _, states := range []int{1, 3} {
			got, err := (runner.Options{N: 8, Lambda: 4, Rule: name, RuleStates: states}).Normalized()
			if err != nil {
				t.Fatalf("%s states=%d: %v", name, states, err)
			}
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", plain) {
				t.Errorf("%s states=%d normalized to %+v, want %+v", name, states, got, plain)
			}
		}
	}
	align, err := (runner.Options{N: 8, Lambda: 4, Rule: runner.RuleAlignment, RuleStates: 3}).Normalized()
	if err != nil || align.RuleStates != 3 {
		t.Fatalf("alignment states: %+v, %v", align, err)
	}
	for _, name := range runner.Rules() {
		_, err := (runner.Options{N: 8, Lambda: 4, Rule: name, RuleStates: -1}).Normalized()
		if err == nil || !strings.Contains(err.Error(), "RuleStates must be non-negative") {
			t.Errorf("%s states=-1: got %v", name, err)
		}
	}
}
