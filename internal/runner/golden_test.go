package runner

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the Compress golden file from the current run code:
//
//	go test ./internal/runner -run TestCompressGolden -update
var update = flag.Bool("update", false, "rewrite testdata/compress.golden")

const compressGoldenPath = "testdata/compress.golden"

type goldenCase struct {
	name string
	opts Options
}

// compressGoldenCases is the pinned matrix: every engine × rule × start
// shape, each with and without snapshots, plus the options only some
// engines take (SVG frames, crash faults, a payload-state override on
// Algorithm A).
func compressGoldenCases() []goldenCase {
	var cases []goldenCase
	for _, engine := range Engines() {
		for _, ru := range []string{RuleCompression, RuleAlignment, RuleForage} {
			for _, start := range StartShapes() {
				for _, every := range []uint64{0, 1500} {
					name := fmt.Sprintf("%s/%s/%s", engine, ru, start)
					if every > 0 {
						name += "/snap"
					}
					cases = append(cases, goldenCase{name, Options{
						N: 14, Lambda: 4, Iterations: 6000, Seed: 17,
						Engine: engine, Rule: ru, Start: start, SnapshotEvery: every,
					}})
				}
			}
		}
	}
	return append(cases,
		goldenCase{"chain/svg", Options{N: 10, Lambda: 4, Iterations: 4000, Seed: 3, SnapshotEvery: 1000, SnapshotSVG: true}},
		goldenCase{"amoebot/svg", Options{N: 10, Lambda: 4, Iterations: 4000, Seed: 3, Engine: EngineAmoebot, SnapshotEvery: 1000, SnapshotSVG: true}},
		goldenCase{"amoebot/crash", Options{N: 20, Lambda: 5, Iterations: 8000, Seed: 1, Engine: EngineAmoebot, CrashFraction: 0.2}},
		goldenCase{"amoebot/crash/snap", Options{N: 20, Lambda: 5, Iterations: 8000, Seed: 1, Engine: EngineAmoebot, CrashFraction: 0.2, SnapshotEvery: 2000}},
		goldenCase{"amoebot/alignment/states4", Options{N: 14, Lambda: 4, Iterations: 6000, Seed: 17, Engine: EngineAmoebot, Rule: RuleAlignment, RuleStates: 4, SnapshotEvery: 1500}},
	)
}

// TestCompressGolden pins Compress end to end: the sha256 of every case's
// JSON Result (rendering, points, crashed particles, rounds and snapshots
// included) and, per snapshot, the delta tap's iteration, move count,
// tracked flag and payload flag. Any change to an engine's trajectory, to
// the result fill or to the snapshot hooks moves a line; a refactor of the
// run path must not.
func TestCompressGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range compressGoldenCases() {
		var deltas []string
		opts := c.opts
		opts.DeltaFunc = func(s Snapshot, d Delta) {
			deltas = append(deltas, fmt.Sprintf("%d:%d:%t:%t", s.Iteration, len(d.Moves), d.Tracked, d.Payloads))
		}
		res, err := Compress(opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if len(deltas) == 0 {
			deltas = []string{"-"}
		}
		fmt.Fprintf(&got, "%s %x %s\n", c.name, sha256.Sum256(raw), strings.Join(deltas, " "))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(compressGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(compressGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(compressGoldenPath)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", compressGoldenPath, err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
