package kmc

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"sops/internal/config"
	"sops/internal/lattice"
	"sops/internal/rule"
)

// -update rewrites the trajectory golden file from the current engine:
//
//	go test ./internal/kmc -run TestKMCTrajectoryGolden -update
var update = flag.Bool("update", false, "rewrite testdata/trajectory.golden")

const trajectoryGoldenPath = "testdata/trajectory.golden"

// trajectoryCase is one pinned run: a start, a rule, a seed and the step
// counts at which the engine state is fingerprinted.
type trajectoryCase struct {
	name   string
	pts    []lattice.Point
	ru     *rule.Rule
	seed   uint64
	checks []uint64 // cumulative step counts, ascending
}

// everyStep returns k checkpoints evenly spaced up to total steps.
func everyStep(total uint64, k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = total * uint64(i+1) / uint64(k)
	}
	return out
}

// trajectoryCases spans the engine's regimes: the benchmark's compressed
// equilibrium (n=1000 spiral, λ=4, 5M steps), expansion from a line (the
// grid and the particle index grow), a hole-bearing random start, the λ=1
// neutral regime, a biased forage run across its λ switch, an ablated rule
// whose table admits moves the full rule forbids, and two alignment runs
// whose translations and rotations re-price payload-dependent weights.
func trajectoryCases(t *testing.T) []trajectoryCase {
	t.Helper()
	forage, err := rule.Forage(4, rule.ForageOptions{
		LambdaLow: 0.7,
		Radius:    5,
		FoodSteps: 300_000,
		Epoch:     2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	random := config.RandomConnected(rand.New(rand.NewPCG(80, 6)), 80)
	return []trajectoryCase{
		{"spiral1000-l4", config.Spiral(1000).Points(), rule.Compression(4), 1, everyStep(5_000_000, 5)},
		{"line200-l2", config.Line(200).Points(), rule.Compression(2), 2, everyStep(2_000_000, 4)},
		{"random80-l6", random.Points(), rule.Compression(6), 3, everyStep(2_000_000, 4)},
		{"spiral300-l1", config.Spiral(300).Points(), rule.Compression(1), 4, everyStep(1_000_000, 4)},
		{"forage-spiral200", config.Spiral(200).Points(), forage, 5, everyStep(600_000, 6)},
		{"ablated-line60", config.Line(60).Points(), rule.CompressionVariant(4, false, true, true), 6, everyStep(1_000_000, 4)},
		{"align-spiral150-k3", config.Spiral(150).Points(), rule.MustAlignment(4, 3), 7, everyStep(600_000, 4)},
		{"align-line80-k6", config.Line(80).Points(), rule.MustAlignment(2, 6), 8, everyStep(600_000, 4)},
	}
}

// fingerprint renders the chain's full incremental state as one line:
// counters, H, e(σ), the bits of the Fenwick total, and a sha256 over every
// particle position, every maintained weight's bits and every Fenwick node's
// bits. Payload rules add the rotation count and every particle's payload.
func fingerprint(c *Chain) string {
	h := sha256.New()
	var buf []byte
	for _, p := range c.Pts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(p.X)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(p.Y)))
	}
	var rots string
	if !c.Ru.Stateless() {
		rots = fmt.Sprintf(" rots=%d", c.Rotations())
		for _, p := range c.Pts {
			buf = append(buf, c.G.Payload(p))
		}
	}
	for _, w := range c.wj {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
	}
	for _, v := range c.fen.tree {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	h.Write(buf)
	return fmt.Sprintf("events=%d steps=%d moves=%d%s H=%d e=%d W=%016x state=%x",
		c.Events(), c.Steps(), c.Accepted(), rots, c.Energy(), c.Edges(),
		math.Float64bits(c.TotalWeight()), h.Sum(nil)[:16])
}

// runCheckpoints advances c through tc's checkpoints and returns one
// fingerprint line per checkpoint.
func runCheckpoints(c *Chain, tc trajectoryCase) []string {
	var lines []string
	for _, at := range tc.checks {
		c.Run(at - c.Steps())
		lines = append(lines, fmt.Sprintf("%s@%d %s", tc.name, at, fingerprint(c)))
	}
	return lines
}

// TestKMCTrajectoryGolden pins the kMC engine's trajectories bit
// for bit at fixed checkpoints: event, step and move counts, energy, edges,
// the total weight and a digest of the positions, maintained weights and
// Fenwick nodes. A fresh chain runs every case; one reused chain then
// Resets through all of them and must print the same lines. A change to
// the event order, the random-number draw order or the floating-point fold
// of any weight moves a line; a pure performance change must not.
func TestKMCTrajectoryGolden(t *testing.T) {
	cases := trajectoryCases(t)
	var lines []string
	for _, tc := range cases {
		c, err := NewWithRule(config.New(tc.pts...), tc.ru, tc.seed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lines = append(lines, runCheckpoints(c, tc)...)
	}
	reused := MustNew(config.Spiral(5), 4, 99)
	var k int
	for _, tc := range cases {
		if err := reused.Reset(tc.pts, tc.ru, tc.seed); err != nil {
			t.Fatalf("%s: Reset: %v", tc.name, err)
		}
		for _, line := range runCheckpoints(reused, tc) {
			if line != lines[k] {
				t.Errorf("reset leg:\n got %s\nwant %s", line, lines[k])
			}
			k++
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoryGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(trajectoryGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, run printed %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("checkpoint %d:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}
