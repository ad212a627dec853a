package amoebot

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sops/internal/config"
	"sops/internal/frame"
	"sops/internal/rule"
)

// TestPlainMatchesGeneral pins runPlain to the general path. For
// compression at λ ∈ {1, 4} and every rule.CompressionVariant ablation,
// from a line, a spiral, a random start and a three-particle drift start,
// it runs one world through runPlain and a twin through &Mux{Default: m},
// which the scheduler runs through Protocol.Activate, in chunks of 1, 7,
// 997 and 2²⁰ activations, twice, with a tenth of the particles crashed in
// between. A move log is attached. But for the drift start, particle 0's
// first delay overflows to +Inf and two particles run at other rates. Then
// every particle but particle 0 crashes, so its clock fires (at +Inf where
// its rate is overridden), and then particle 0, so the runs end dry. After
// every chunk the twins must agree on every particle's head, tail and
// flag, the activation, move and round counts, the bits of the clock, the
// tail grid's edge count (which must equal a recount), the logged moves
// and the generator's next word. Some runs must rebuild the cell index's
// window and some the tail grid's, so that runPlain's stale-window paths
// run.
func TestPlainMatchesGeneral(t *testing.T) {
	type ruleCase struct {
		name string
		ru   *rule.Rule
	}
	rules := []ruleCase{
		{"compression-1", rule.Compression(1)},
		{"compression-4", rule.Compression(4)},
	}
	for v := 0; v < 7; v++ {
		guard, prop1, prop2 := v&1 != 0, v&2 != 0, v&4 != 0
		rules = append(rules, ruleCase{
			fmt.Sprintf("variant-%t-%t-%t", guard, prop1, prop2),
			rule.CompressionVariant(4, guard, prop1, prop2),
		})
	}
	rates := map[ParticleID]float64{0: 1e-320, 1: 0.5, 2: 3}
	starts := []struct {
		name  string
		c     *config.Config
		rates map[ParticleID]float64
	}{
		{"line", config.Line(40), rates},
		{"spiral", config.Spiral(60), rates},
		{"random", config.RandomConnected(rand.New(rand.NewPCG(5, 6)), 50), rates},
		// Three particles, none held back by a slow clock, wander as one
		// cluster and regrow both windows within 2¹⁴ activations, so the
		// stale-window paths run under -short too.
		{"drift", config.Line(3), nil},
	}
	long := uint64(1 << 20)
	if testing.Short() {
		long = 1 << 14
	}
	ran, indexRebuilt, tailsGrown := 0, false, false
	for _, rc := range rules {
		for _, sc := range starts {
			t.Run(rc.name+"/"+sc.name, func(t *testing.T) {
				m := MustNewMetropolis(rc.ru)
				var plain, general twin
				plain.start(t, sc.c, m, sc.rates)
				general.start(t, sc.c, &Mux{Default: m}, sc.rates)
				if plain.s.plain == nil || general.s.plain != nil {
					t.Fatal("the twins do not take the two paths")
				}
				cells := plain.w.idx.cells
				words, _, _, _ := plain.w.tails.View()
				run := func(k uint64) {
					t.Helper()
					plain.s.RunActivations(k)
					general.s.RunActivations(k)
					plain.compare(t, &general, k)
				}
				for _, k := range []uint64{1, 7, 997, long} {
					run(k)
				}
				crashed := plain.w.CrashFraction(rand.New(rand.NewPCG(7, 8)), 0.1)
				if want := general.w.CrashFraction(rand.New(rand.NewPCG(7, 8)), 0.1); !slices.Equal(crashed, want) {
					t.Fatalf("CrashFraction crashed %v, its twin %v", crashed, want)
				}
				for _, k := range []uint64{1, 7, 997, long} {
					run(k)
				}
				for id := 1; id < plain.w.N(); id++ {
					plain.w.Crash(ParticleID(id))
					general.w.Crash(ParticleID(id))
				}
				run(7)
				if sc.rates != nil && !math.IsInf(plain.s.Time(), 1) {
					t.Fatalf("particle 0 last fired at %v, want +Inf", plain.s.Time())
				}
				plain.w.Crash(0)
				general.w.Crash(0)
				run(7)
				if plain.s.StepActivation() || general.s.StepActivation() {
					t.Fatal("a scheduler stepped with every particle crashed")
				}
				ran++
				indexRebuilt = indexRebuilt || len(plain.w.idx.cells) != len(cells)
				now, _, _, _ := plain.w.tails.View()
				tailsGrown = tailsGrown || len(now) != len(words)
			})
		}
	}
	if ran == len(rules)*len(starts) && !(indexRebuilt && tailsGrown) {
		t.Errorf("no run regrew a window (cell index %t, tail grid %t)", indexRebuilt, tailsGrown)
	}
}

// twin is one side of TestPlainMatchesGeneral.
type twin struct {
	w   *World
	s   *PoissonScheduler
	log frame.MoveLog
}

func (tw *twin) start(t *testing.T, c *config.Config, proto Protocol, rates map[ParticleID]float64) {
	t.Helper()
	w, err := NewWorld(c)
	if err != nil {
		t.Fatal(err)
	}
	tw.w = w
	w.SetMoveLog(&tw.log)
	tw.s = NewPoissonScheduler(w, proto, 9, WithRates(rates))
}

// compare fails t unless tw (the plain side) and o agree after a chunk of
// k activations.
func (tw *twin) compare(t *testing.T, o *twin, k uint64) {
	t.Helper()
	if err := tw.w.CheckInvariants(); err != nil {
		t.Fatalf("after a chunk of %d: %v", k, err)
	}
	a, b := tw.w, o.w
	for id := range a.particles {
		p, q := &a.particles[id], &b.particles[id]
		if p.head != q.head || p.tail != q.tail || p.flag != q.flag {
			t.Fatalf("after a chunk of %d, %d activations: particle %d has tail %v, head %v, flag %t; general path %v, %v, %t",
				k, a.Activations(), id, p.tail, p.head, p.flag, q.tail, q.head, q.flag)
		}
	}
	if a.Activations() != b.Activations() || a.Moves() != b.Moves() || a.Rounds() != b.Rounds() {
		t.Fatalf("after a chunk of %d: activations/moves/rounds %d/%d/%d, general path %d/%d/%d",
			k, a.Activations(), a.Moves(), a.Rounds(), b.Activations(), b.Moves(), b.Rounds())
	}
	if x, y := math.Float64bits(tw.s.Time()), math.Float64bits(o.s.Time()); x != y {
		t.Fatalf("after a chunk of %d: clock %#x, general path %#x", k, x, y)
	}
	if x, y := a.Tails().Edges(), b.Tails().Edges(); x != y {
		t.Fatalf("after a chunk of %d: %d tail edges, general path %d", k, x, y)
	}
	// Both paths relocate through contractToHead, so recount the edges.
	if x, y := a.Tails().Edges(), a.Config().Edges(); x != y {
		t.Fatalf("after a chunk of %d: the tail grid counts %d edges, a recount %d", k, x, y)
	}
	if x, y := tw.log.Drain(), o.log.Drain(); !slices.Equal(x, y) {
		t.Fatalf("after a chunk of %d: logged moves differ (%d, general path %d)", k, len(x), len(y))
	}
	// Copies, so that reading the next word leaves the streams alone.
	x, y := tw.s.pcg, o.s.pcg
	if x.Uint64() != y.Uint64() {
		t.Fatalf("after a chunk of %d: the generators' next words differ", k)
	}
}
