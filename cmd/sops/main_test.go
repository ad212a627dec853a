package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

// TestDispatchTable: every documented subcommand resolves, unknown names do
// not, and the help aliases are not subcommands (main handles them).
func TestDispatchTable(t *testing.T) {
	for _, name := range []string{"run", "sweep", "resume", "serve", "replay", "figures", "census", "list-scenarios"} {
		if _, ok := dispatch(name); !ok {
			t.Errorf("subcommand %q missing from dispatch table", name)
		}
	}
	for _, name := range []string{"", "Run", "compress", "help", "-h", "--help", "list"} {
		if _, ok := dispatch(name); ok {
			t.Errorf("dispatch resolved unexpected name %q", name)
		}
	}
	if len(commands) != 8 {
		t.Errorf("dispatch table has %d entries, want 8 — update the usage text and this test together", len(commands))
	}
}

// TestParseHelpers covers the comma-separated list parsers the sweep flags
// are built from.
func TestParseHelpers(t *testing.T) {
	if vs, err := parseFloats(" 1, 2.5,3e-1 "); err != nil || len(vs) != 3 || vs[1] != 2.5 {
		t.Errorf("parseFloats: got %v, %v", vs, err)
	}
	if vs, err := parseFloats(""); err != nil || vs != nil {
		t.Errorf("parseFloats empty: got %v, %v", vs, err)
	}
	if _, err := parseFloats("1,x"); err == nil {
		t.Error("parseFloats must reject non-numbers")
	}
	if vs, err := parseInts("16, 32,64"); err != nil || len(vs) != 3 || vs[2] != 64 {
		t.Errorf("parseInts: got %v, %v", vs, err)
	}
	if _, err := parseInts("16,1.5"); err == nil {
		t.Error("parseInts must reject non-integers")
	}
	if vs := parseStrings(" line , spiral "); len(vs) != 2 || vs[0] != "line" || vs[1] != "spiral" {
		t.Errorf("parseStrings: got %v", vs)
	}
	if vs := parseStrings("  "); vs != nil {
		t.Errorf("parseStrings blank: got %v", vs)
	}
}

// TestCmdRunSmallRun drives the run subcommand end to end on every engine.
func TestCmdRunSmallRun(t *testing.T) {
	for _, engine := range []string{"chain", "kmc", "amoebot"} {
		out, err := captureStdout(t, func() error {
			return cmdRun([]string{"-n", "12", "-lambda", "4", "-iters", "4000",
				"-engine", engine, "-snapshots", "0", "-render=false"})
		})
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		if !strings.Contains(out, "final:") || !strings.Contains(out, "perimeter=") {
			t.Errorf("engine %s: output missing final metrics:\n%s", engine, out)
		}
	}
}

// TestCmdRunAlignRule drives the run subcommand with the alignment rule on
// every engine and checks the rule-specific metrics are reported.
func TestCmdRunAlignRule(t *testing.T) {
	for _, engine := range []string{"chain", "kmc", "amoebot"} {
		out, err := captureStdout(t, func() error {
			return cmdRun([]string{"-n", "12", "-lambda", "4", "-iters", "4000",
				"-engine", engine, "-rule", "align", "-states", "3", "-snapshots", "0", "-render=false"})
		})
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		for _, want := range []string{"rule=align", "rotations=", "energy=", "order="} {
			if !strings.Contains(out, want) {
				t.Errorf("engine %s: output missing %q:\n%s", engine, want, out)
			}
		}
	}
	if _, err := captureStdout(t, func() error {
		return cmdRun([]string{"-n", "5", "-rule", "telepathy"})
	}); err == nil || !strings.Contains(err.Error(), "unknown rule") {
		t.Errorf("unknown rule: got %v", err)
	}
}

// TestCmdSweepAlignScenario: the align scenario sweeps the rule axis and
// emits the order-parameter metric.
func TestCmdSweepAlignScenario(t *testing.T) {
	dir := t.TempDir()
	out, err := captureStdout(t, func() error {
		return cmdSweep([]string{"-scenario", "align", "-lambdas", "3", "-sizes", "10",
			"-engines", "chain,kmc", "-iters", "2000", "-reps", "1", "-seed", "2", "-dir", dir, "-quiet"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"align", "order", "run=2 replayed=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("align sweep output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdRunRejectsUnknownEngine: engine validation happens before any work.
func TestCmdRunRejectsUnknownEngine(t *testing.T) {
	_, err := captureStdout(t, func() error {
		return cmdRun([]string{"-n", "5", "-engine", "warp"})
	})
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("want unknown-engine error, got %v", err)
	}
}

// TestCmdRunRejectsNegativeCrash: -crash reaches Options unfiltered, so a
// negative fraction is refused on every engine, as `sops sweep -crash`
// refuses it, instead of running with no crashes.
func TestCmdRunRejectsNegativeCrash(t *testing.T) {
	for _, engine := range []string{"amoebot", "chain"} {
		_, err := captureStdout(t, func() error {
			return cmdRun([]string{"-n", "5", "-iters", "100", "-engine", engine, "-crash", "-0.5",
				"-snapshots", "0", "-render=false"})
		})
		if err == nil || !strings.Contains(err.Error(), "CrashFraction") {
			t.Errorf("engine %s: -crash -0.5 returned %v, want a CrashFraction error", engine, err)
		}
	}
}

// TestCmdRunWritesSVG: the -svg flag writes a well-formed document.
func TestCmdRunWritesSVG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.svg")
	_, err := captureStdout(t, func() error {
		return cmdRun([]string{"-n", "8", "-iters", "1000", "-snapshots", "0",
			"-render=false", "-svg", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "<svg") {
		t.Error("svg output does not look like SVG")
	}
}

// TestCmdSweepAndResume: a journaled sweep emits artifacts; resuming the
// directory replays every task instead of rerunning.
func TestCmdSweepAndResume(t *testing.T) {
	dir := t.TempDir()
	sweepArgs := []string{"-scenario", "compress", "-lambdas", "2,5", "-sizes", "10",
		"-engines", "kmc", "-iters", "3000", "-reps", "2", "-seed", "1", "-dir", dir, "-quiet"}
	out, err := captureStdout(t, func() error { return cmdSweep(sweepArgs) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "run=4 replayed=0") {
		t.Errorf("first sweep should run all 4 tasks:\n%s", out)
	}
	for _, f := range []string{"spec.json", "journal.jsonl", "results.jsonl", "results.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
	out, err = captureStdout(t, func() error { return cmdResume([]string{"-dir", dir, "-quiet"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "run=0 replayed=4") {
		t.Errorf("resume should replay all 4 tasks:\n%s", out)
	}
}

// TestCmdSweepRejectsBadAxisLists: list parsing failures surface as errors,
// not panics or silent defaults.
func TestCmdSweepRejectsBadAxisLists(t *testing.T) {
	for _, args := range [][]string{
		{"-lambdas", "2,x"},
		{"-sizes", "10,ten"},
		{"-crash", "0.1,?"},
	} {
		if _, err := captureStdout(t, func() error { return cmdSweep(args) }); err == nil {
			t.Errorf("args %v: want parse error", args)
		}
	}
	if _, err := captureStdout(t, func() error {
		return cmdSweep([]string{"-scenario", "no-such-scenario", "-sizes", "8"})
	}); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown scenario: got %v", err)
	}
}

// TestCmdResumeRequiresDir: resume without -dir is an error.
func TestCmdResumeRequiresDir(t *testing.T) {
	if _, err := captureStdout(t, func() error { return cmdResume(nil) }); err == nil {
		t.Error("resume without -dir must fail")
	}
}

// TestCmdListScenarios: the registry prints, and -v adds the default axes.
func TestCmdListScenarios(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdListScenarios(nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"compress", "phase", "mixing", "scaling"} {
		if !strings.Contains(out, name) {
			t.Errorf("list-scenarios output missing %q", name)
		}
	}
	out, err = captureStdout(t, func() error { return cmdListScenarios([]string{"-v"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "lambdas=") {
		t.Errorf("-v output missing default axes:\n%s", out)
	}
}
