package experiment

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sops/internal/runner"
)

// summariesJSON runs spec to completion and returns the marshaled
// summaries.
func summariesJSON(t *testing.T, spec Spec, opt RunOptions) []byte {
	t.Helper()
	res, err := Run(context.Background(), spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res.Summaries)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestResumeByteIdentical is the acceptance criterion of the experiment
// engine: a sweep interrupted mid-run and re-invoked with the same spec
// resumes from the journal, and the final PointSummaries are byte-identical
// to an uninterrupted run with the same seed.
func TestResumeByteIdentical(t *testing.T) {
	var cancel context.CancelFunc
	var calls atomic.Int64
	const cancelAfter = 5
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		if calls.Add(1) == cancelAfter && cancel != nil {
			cancel()
		}
		// Metrics depend only on the task, as the determinism contract
		// requires; the seed makes them vary irregularly across the grid.
		return Metrics{
			"value": float64(task.Seed%1000) / 7,
			"rep":   float64(task.Rep),
		}, nil
	})
	spec := Spec{
		Scenario: name,
		Lambdas:  []float64{1, 2, 3},
		Sizes:    []int{5, 10},
		Reps:     3,
		Seed:     1234,
	}

	// Interrupted run: cancel fires mid-sweep, Run must report the
	// interruption and leave a resumable journal behind.
	dirA := t.TempDir()
	var ctx context.Context
	ctx, cancel = context.WithCancel(context.Background())
	_, err := Run(ctx, spec, RunOptions{Dir: dirA, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	journaled := countJournalLines(t, dirA)
	total := 3 * 2 * 3
	if journaled == 0 || journaled >= total {
		t.Fatalf("journal holds %d of %d tasks; interruption did not land mid-run", journaled, total)
	}

	// Resume with the same spec: only the missing tasks run.
	cancel = nil
	callsBefore := calls.Load()
	res, err := Run(context.Background(), spec, RunOptions{Dir: dirA, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksReplayed != journaled {
		t.Errorf("replayed %d tasks, want %d", res.TasksReplayed, journaled)
	}
	if res.TasksRun != total-journaled {
		t.Errorf("resume executed %d tasks, want %d", res.TasksRun, total-journaled)
	}
	if executed := calls.Load() - callsBefore; executed != int64(total-journaled) {
		t.Errorf("resume invoked the scenario %d times, want %d", executed, total-journaled)
	}
	resumed, err := json.Marshal(res.Summaries)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted control run in a fresh directory.
	control := summariesJSON(t, spec, RunOptions{Dir: t.TempDir(), Workers: 4})
	if string(resumed) != string(control) {
		t.Fatalf("resumed summaries differ from uninterrupted run:\nresumed: %s\ncontrol: %s", resumed, control)
	}

	// And the emitted results files agree byte for byte too.
	a, err := os.ReadFile(filepath.Join(dirA, ResultsJSONL))
	if err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	summariesJSON(t, spec, RunOptions{Dir: dirB})
	b, err := os.ReadFile(filepath.Join(dirB, ResultsJSONL))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("results.jsonl differs between resumed and uninterrupted runs")
	}
}

// TestResumeReplaysFailures: failed tasks are journaled and stay failed on
// resume instead of rerunning forever.
func TestResumeReplaysFailures(t *testing.T) {
	var calls atomic.Int64
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		calls.Add(1)
		if task.Rep == 1 {
			return nil, fmt.Errorf("deterministic failure")
		}
		return Metrics{"v": 1}, nil
	})
	spec := Spec{Scenario: name, Reps: 3, Seed: 9}
	dir := t.TempDir()
	first, err := Run(context.Background(), spec, RunOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if first.Failures != 1 {
		t.Fatalf("failures = %d, want 1", first.Failures)
	}
	callsAfter := calls.Load()
	second, err := Run(context.Background(), spec, RunOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != callsAfter {
		t.Error("resume re-executed journaled tasks")
	}
	if second.Failures != 1 || second.TasksReplayed != 3 {
		t.Errorf("resume: failures=%d replayed=%d, want 1/3", second.Failures, second.TasksReplayed)
	}
}

// TestResumeToleratesTornJournalLine: a hard kill can leave a partial final
// line; the loader skips it and the task reruns.
func TestResumeToleratesTornJournalLine(t *testing.T) {
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		return Metrics{"v": float64(task.Rep)}, nil
	})
	spec := Spec{Scenario: name, Reps: 2, Seed: 4}
	dir := t.TempDir()
	control := summariesJSON(t, spec, RunOptions{Dir: dir})

	// Corrupt the journal: keep the first line, tear the second.
	path := filepath.Join(dir, JournalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	if !sc.Scan() {
		t.Fatal("journal empty")
	}
	torn := sc.Text() + "\n" + `{"point":0,"rep":1,"se`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), spec, RunOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksReplayed != 1 || res.TasksRun != 1 {
		t.Errorf("replayed=%d run=%d, want 1/1", res.TasksReplayed, res.TasksRun)
	}
	got, err := json.Marshal(res.Summaries)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(control) {
		t.Error("summaries after torn-line recovery differ")
	}
}

// TestResumeJournalsAfterTornLine: the task rerun after a torn final line
// is journaled on a line of its own, so the next resume replays every task
// and runs none.
func TestResumeJournalsAfterTornLine(t *testing.T) {
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		return Metrics{"v": float64(task.Rep)}, nil
	})
	spec := Spec{Scenario: name, Reps: 2, Seed: 4}
	dir := t.TempDir()
	summariesJSON(t, spec, RunOptions{Dir: dir})

	path := filepath.Join(dir, JournalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(raw[:bytes.IndexByte(raw, '\n')+1], `{"point":0,"rep":1,"se`...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 0} {
		res, err := Run(context.Background(), spec, RunOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if res.TasksRun != want || res.TasksReplayed != 2-want {
			t.Errorf("resume %d: run=%d replayed=%d, want %d/%d", i+1, res.TasksRun, res.TasksReplayed, want, 2-want)
		}
	}
}

// TestResumeSkipsEntrylessJournalLines: a line that decodes but names no
// task (`null`, `{}`, or an object without point, rep or seed) is skipped
// like a torn one, so a finished sweep still resumes with nothing to run
// instead of reading task (0, 0) with seed 0 and refusing the directory.
func TestResumeSkipsEntrylessJournalLines(t *testing.T) {
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		return Metrics{"v": float64(task.Rep)}, nil
	})
	spec := Spec{Scenario: name, Reps: 2, Seed: 4}
	dir := t.TempDir()
	control := summariesJSON(t, spec, RunOptions{Dir: dir})
	path := filepath.Join(dir, JournalFile)
	for _, line := range []string{"null", "{}", `{"rep":1,"seed":7}`} {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(line + "\n"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		res, err := Run(context.Background(), spec, RunOptions{Dir: dir})
		if err != nil {
			t.Fatalf("after appending %s: %v", line, err)
		}
		if res.TasksRun != 0 || res.TasksReplayed != 2 {
			t.Errorf("after appending %s: run=%d replayed=%d, want 0/2", line, res.TasksRun, res.TasksReplayed)
		}
		if got, _ := json.Marshal(res.Summaries); string(got) != string(control) {
			t.Errorf("after appending %s: summaries differ from the finished sweep's", line)
		}
	}
}

// TestResumeRejectsForeignJournal: a journal whose seeds do not match the
// spec (hand-edited, or copied between directories) is rejected instead of
// silently polluting the summaries.
func TestResumeRejectsForeignJournal(t *testing.T) {
	name := testScenario(t, func(sp Spec, task Task) (Metrics, error) {
		return Metrics{"v": 1}, nil
	})
	spec := Spec{Scenario: name, Reps: 2, Seed: 4}
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, RunOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	bad := journalEntry{Point: 0, Rep: 0, Seed: 12345, Metrics: Metrics{"v": 99}}
	line, _ := json.Marshal(bad)
	f, err := os.OpenFile(filepath.Join(dir, JournalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(append(line, '\n'))
	f.Close()
	if _, err := Run(context.Background(), spec, RunOptions{Dir: dir}); err == nil {
		t.Fatal("journal with wrong seeds must be rejected")
	}
}

// TestResumeRefusesUnknownSpecField: a spec.json carrying a field this
// binary does not know (an option since removed, such as "shards", or one
// from a newer build) stops a resume before the journal is touched.
// Dropping the field would run the remaining tasks as a different
// experiment than the journaled ones.
func TestResumeRefusesUnknownSpecField(t *testing.T) {
	spec := Spec{Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{8}, Iterations: 2000, Reps: 2, Seed: 6}
	for _, tc := range []struct{ field, value string }{{"shards", "2"}, {"bogus", "1"}} {
		t.Run(tc.field, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Run(context.Background(), spec, RunOptions{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			// Keep one of the two journaled tasks, so a lenient resume
			// would run the other and append it.
			journalPath := filepath.Join(dir, JournalFile)
			raw, err := os.ReadFile(journalPath)
			if err != nil {
				t.Fatal(err)
			}
			cut := raw[:bytes.IndexByte(raw, '\n')+1]
			if err := os.WriteFile(journalPath, cut, 0o644); err != nil {
				t.Fatal(err)
			}
			specPath := filepath.Join(dir, SpecFile)
			raw, err = os.ReadFile(specPath)
			if err != nil {
				t.Fatal(err)
			}
			raw = bytes.Replace(raw, []byte("{\n"), []byte(fmt.Sprintf("{\n  %q: %s,\n", tc.field, tc.value)), 1)
			if err := os.WriteFile(specPath, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			want := fmt.Sprintf("unknown field %q", tc.field)
			if _, err := LoadSpec(dir); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("LoadSpec returned %v, want an error naming %s", err, want)
			}
			if _, err := Run(context.Background(), spec, RunOptions{Dir: dir}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Run returned %v, want an error naming %s", err, want)
			}
			if after, err := os.ReadFile(journalPath); err != nil || !bytes.Equal(after, cut) {
				t.Errorf("refused resume changed the journal (err %v):\n%s", err, after)
			}
		})
	}
}

// TestAlignSweepResumesByteIdentical runs the real align scenario (both
// sequential engines over the rule axis) with a tiny budget, re-invokes the
// identical spec against the same directory, and requires zero new tasks
// plus byte-identical emitted results — the rule-axis acceptance criterion.
func TestAlignSweepResumesByteIdentical(t *testing.T) {
	spec := Spec{
		Scenario:   "align",
		Lambdas:    []float64{4},
		Sizes:      []int{12},
		Engines:    []string{EngineChain, EngineKMC},
		Iterations: 8000,
		Reps:       2,
		Seed:       3,
	}
	dir := t.TempDir()
	first := summariesJSON(t, spec, RunOptions{Dir: dir, Workers: 2})
	a, err := os.ReadFile(filepath.Join(dir, ResultsJSONL))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, RunOptions{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 0 || res.TasksReplayed != 4 {
		t.Fatalf("rerun executed %d tasks, replayed %d; want 0/4", res.TasksRun, res.TasksReplayed)
	}
	second, err := json.Marshal(res.Summaries)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("align summaries differ between run and replay")
	}
	b, err := os.ReadFile(filepath.Join(dir, ResultsJSONL))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("align results.jsonl differs between run and replay")
	}
	for _, s := range res.Summaries {
		if s.Point.Rule != "align" {
			t.Fatalf("point %s carries rule %q, want align", s.Point, s.Point.Rule)
		}
		for _, metric := range []string{"order", "energy", "rotations"} {
			if _, ok := s.ByMetric[metric]; !ok {
				t.Errorf("point %s missing metric %q", s.Point, metric)
			}
		}
	}
}

// TestPreRuleAxisSpecStillResumes: an experiment directory journaled before
// the rule axis existed has a spec.json without "rules"/"rule_states"; the
// normalized Spec must still marshal identically (the compression-only axis
// stays empty), so the directory keeps resuming instead of being rejected
// as a spec mismatch.
func TestPreRuleAxisSpecStillResumes(t *testing.T) {
	spec := Spec{Scenario: "compress", Lambdas: []float64{2}, Sizes: []int{8}, Iterations: 2000, Reps: 1, Seed: 6}
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, RunOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	// The recorded spec must not mention the rule axis at all (omitempty):
	// that is exactly the byte layout pre-rule-axis directories hold.
	raw, err := os.ReadFile(filepath.Join(dir, SpecFile))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("rules")) || bytes.Contains(raw, []byte("rule_states")) {
		t.Fatalf("normalized compression spec mentions the rule axis:\n%s", raw)
	}
	// An explicit -rules compression (and a stray -states, which no payload
	// rule in the axis consumes) collapses to the same identity.
	spec.Rules = []string{"compression"}
	spec.RuleStates = 3
	res, err := Run(context.Background(), spec, RunOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 0 || res.TasksReplayed != 1 {
		t.Fatalf("explicit compression rule did not resume the journal: run=%d replayed=%d", res.TasksRun, res.TasksReplayed)
	}
}

// TestPreForageSpecStillResumes: an experiment directory journaled before
// the forage schedule existed has a spec.json without "forage"; the
// normalized Spec must keep marshaling without it (nil schedule, omitempty),
// so pre-existing store digests and journals resume byte-identically
// instead of being rejected as a spec mismatch.
func TestPreForageSpecStillResumes(t *testing.T) {
	spec := Spec{Scenario: "compress", Lambdas: []float64{2}, Sizes: []int{8}, Iterations: 2000, Reps: 1, Seed: 6}
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, RunOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	// The recorded spec must not mention the schedule at all: that is
	// exactly the byte layout pre-forage directories hold, so producing it
	// today proves their digests are unchanged.
	raw, err := os.ReadFile(filepath.Join(dir, SpecFile))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("forage")) {
		t.Fatalf("normalized unscheduled spec mentions forage:\n%s", raw)
	}
	res, err := Run(context.Background(), spec, RunOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 0 || res.TasksReplayed != 1 {
		t.Fatalf("pre-forage journal did not resume: run=%d replayed=%d", res.TasksRun, res.TasksReplayed)
	}

	// A forage sweep with the schedule left nil and one with every default
	// spelled out explicitly are the same identity: same digest, same
	// journal, zero reruns.
	fspec := Spec{Scenario: "forage", Sizes: []int{10}, Iterations: 3000, Reps: 1, Seed: 9}
	fdir := t.TempDir()
	if _, err := Run(context.Background(), fspec, RunOptions{Dir: fdir}); err != nil {
		t.Fatal(err)
	}
	explicit := fspec
	def := (&runner.ForageSpec{}).WithDefaults()
	explicit.Forage = &def
	d1, err := Digest(fspec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Digest(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("explicit default schedule forked the digest: %s vs %s", d1, d2)
	}
	res, err = Run(context.Background(), explicit, RunOptions{Dir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 0 || res.TasksReplayed != 1 {
		t.Fatalf("explicit default schedule did not resume the nil-schedule journal: run=%d replayed=%d",
			res.TasksRun, res.TasksReplayed)
	}

	// A non-default schedule must fork the identity, not silently collapse.
	custom := fspec
	custom.Forage = &runner.ForageSpec{Radius: 9}
	d3, err := Digest(custom)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("non-default schedule digests identically to the default")
	}
}

func countJournalLines(t *testing.T, dir string) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			n++
		}
	}
	return n
}
