package runner

import (
	"fmt"
	"reflect"
	"testing"
)

// TestArenaCompressMatchesPlain is the arena-reuse check: one arena driven
// through a heterogeneous task list — every engine, rules, start shapes,
// and the options only some engines take — returns for each task the same
// Result as the package-level Compress, a single-use arena, in every field
// except Rendering, which only Compress draws. TestCompressGolden pins the
// values themselves.
func TestArenaCompressMatchesPlain(t *testing.T) {
	a := NewArena()
	cases := []Options{
		{N: 30, Lambda: 4, Iterations: 30_000, Seed: 5},
		{N: 30, Lambda: 4, Iterations: 30_000, Seed: 5, Engine: EngineKMC},
		{N: 40, Lambda: 6, Iterations: 20_000, Seed: 9, Start: StartSpiral, Engine: EngineKMC},
		{N: 40, Lambda: 2, Iterations: 20_000, Seed: 11, Start: StartRandom},
		{N: 25, Lambda: 4, Iterations: 15_000, Seed: 13, Start: StartTree, Engine: EngineKMC},
		{N: 30, Lambda: 4, Iterations: 15_000, Seed: 7, Rule: RuleAlignment},
		{N: 30, Lambda: 4, Iterations: 15_000, Seed: 7, Rule: RuleAlignment, RuleStates: 4, Engine: EngineKMC},
		{N: 30, Lambda: 5, Iterations: 24_000, Seed: 3, SnapshotEvery: 6000},
		{N: 30, Lambda: 5, Iterations: 24_000, Seed: 3, SnapshotEvery: 6000, Engine: EngineKMC},
		{N: 24, Lambda: 4, Iterations: 8_000, Seed: 2, Engine: EngineKMC, Shards: 2},
		{N: 24, Lambda: 4, Iterations: 4_000, Seed: 2, Engine: EngineAmoebot},
		{N: 20, Lambda: 5, Iterations: 8_000, Seed: 1, Engine: EngineAmoebot, CrashFraction: 0.2, SnapshotEvery: 2000},
		{N: 14, Lambda: 4, Iterations: 6_000, Seed: 17, Engine: EngineAmoebot, Rule: RuleAlignment, RuleStates: 4},
		{N: 10, Lambda: 4, Iterations: 4_000, Seed: 3, Engine: EngineKMC, SnapshotEvery: 1000, SnapshotSVG: true},
		{N: 24, Lambda: 4, Iterations: 8_000, Seed: 2, Engine: EngineKMC, Shards: 2, SnapshotEvery: 2000},
		{N: 30, Lambda: 4, Iterations: 30_000, Seed: 5}, // chain again, after a sharded task
	}
	for i, opts := range cases {
		t.Run(fmt.Sprintf("case-%d", i), func(t *testing.T) {
			want, err := Compress(opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Compress(opts)
			if err != nil {
				t.Fatal(err)
			}
			w, g := *want, *got
			if w.Rendering != "" && g.Rendering == "" {
				w.Rendering = "" // the one documented arena difference
			}
			if len(w.Snapshots) == 0 && len(g.Snapshots) == 0 {
				w.Snapshots, g.Snapshots = nil, nil
			}
			if len(w.Points) == 0 && len(g.Points) == 0 {
				w.Points, g.Points = nil, nil
			}
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("arena result diverged\n plain: %+v\n arena: %+v", w, g)
			}
		})
	}
}

// TestArenaCompressZeroAlloc is the tentpole's allocation gate: once warm,
// executing a full task through the arena allocates nothing.
func TestArenaCompressZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"chain-line", Options{N: 40, Lambda: 4, Iterations: 20_000, Seed: 3}},
		{"chain-spiral", Options{N: 40, Lambda: 6, Iterations: 20_000, Seed: 3, Start: StartSpiral}},
		{"kmc-line", Options{N: 40, Lambda: 4, Iterations: 20_000, Seed: 3, Engine: EngineKMC}},
		{"kmc-spiral", Options{N: 40, Lambda: 6, Iterations: 20_000, Seed: 3, Start: StartSpiral, Engine: EngineKMC}},
		// A sweep task's hooks: snapshots streamed to a callback, with the
		// interrupt polled at every boundary.
		{"chain-snapshots", Options{N: 40, Lambda: 4, Iterations: 20_000, Seed: 3, SnapshotEvery: 5000,
			SnapshotFunc: func(Snapshot) {}, Interrupt: func() bool { return false }}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena()
			run := func() {
				if _, err := a.Compress(tc.opts); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up: first runs compile the rule, build the start shape,
			// construct the engine, and grow the grid window to the
			// trajectory's extent.
			for i := 0; i < 3; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("steady-state arena task allocated %v times, want 0", allocs)
			}
		})
	}
}

// TestArenaReusedAcrossHeterogeneousTasks drives one arena through a mixed
// task schedule — both engines, both rules, several sizes — interleaved, to
// catch state leaking between unlike tasks.
func TestArenaReusedAcrossHeterogeneousTasks(t *testing.T) {
	a := NewArena()
	schedule := []Options{
		{N: 20, Lambda: 4, Iterations: 10_000, Seed: 1},
		{N: 35, Lambda: 2, Iterations: 10_000, Seed: 2, Engine: EngineKMC, Start: StartSpiral},
		{N: 20, Lambda: 4, Iterations: 10_000, Seed: 1, Rule: RuleAlignment},
		{N: 50, Lambda: 6, Iterations: 10_000, Seed: 3, Engine: EngineKMC},
		{N: 20, Lambda: 4, Iterations: 10_000, Seed: 1}, // repeat of task 0
	}
	var first *Result
	for pass := 0; pass < 2; pass++ {
		for i, opts := range schedule {
			got, err := a.Compress(opts)
			if err != nil {
				t.Fatalf("pass %d task %d: %v", pass, i, err)
			}
			want, err := Compress(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Perimeter != want.Perimeter || got.Edges != want.Edges ||
				got.Moves != want.Moves || got.Energy != want.Energy {
				t.Fatalf("pass %d task %d: arena (p=%d e=%d m=%d H=%d) vs plain (p=%d e=%d m=%d H=%d)",
					pass, i, got.Perimeter, got.Edges, got.Moves, got.Energy,
					want.Perimeter, want.Edges, want.Moves, want.Energy)
			}
			if i == 0 && pass == 0 {
				cp := *got
				cp.Points = append([]Point(nil), got.Points...)
				first = &cp
			}
		}
	}
	// The repeated task must reproduce its own first execution exactly.
	last, err := a.Compress(schedule[0])
	if err != nil {
		t.Fatal(err)
	}
	if last.Perimeter != first.Perimeter || last.Moves != first.Moves ||
		!reflect.DeepEqual(last.Points, first.Points) {
		t.Fatal("identical task diverged across arena reuse")
	}
}

// TestArenaDeltaTapAcrossTasks: the delta tap of a reused engine carries
// only its own task's moves — none left in the log by a tapped task that
// took no snapshots, none logged while an untapped task ran.
func TestArenaDeltaTapAcrossTasks(t *testing.T) {
	for _, engine := range []string{EngineChain, EngineKMC} {
		t.Run(engine, func(t *testing.T) {
			base := Options{N: 20, Lambda: 4, Iterations: 8000, Seed: 4, Engine: engine, SnapshotEvery: 2000}
			tapped := func(a *Arena, opts Options) []int {
				var moves []int
				opts.DeltaFunc = func(_ Snapshot, d Delta) { moves = append(moves, len(d.Moves)) }
				compress := Compress
				if a != nil {
					compress = a.Compress
				}
				if _, err := compress(opts); err != nil {
					t.Fatal(err)
				}
				return moves
			}
			want := tapped(nil, base)

			a := NewArena()
			unsnapped := base
			unsnapped.Seed, unsnapped.SnapshotEvery = 99, 0
			tapped(a, unsnapped) // logs every move, drains none
			if _, err := a.Compress(Options{N: 20, Lambda: 4, Iterations: 8000, Seed: 5, Engine: engine}); err != nil {
				t.Fatal(err)
			}
			if n := a.snap.log.Len(); n != 0 {
				t.Fatalf("move log holds %d moves after an untapped task", n)
			}
			if got := tapped(a, base); !reflect.DeepEqual(got, want) {
				t.Fatalf("moves per interval on a reused arena %v, single-use %v", got, want)
			}
		})
	}
}
