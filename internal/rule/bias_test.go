package rule

import (
	"math"
	"testing"

	"sops/internal/grid"
	"sops/internal/lattice"
)

// TestValidateLambdaBoundaries: the power ladder spans λ^±deltaBound, so
// Compile (and every bias-schedule entry point) must reject exactly the λ
// whose ladder endpoints overflow to +Inf or underflow to 0 — those values
// would otherwise poison acceptance probabilities with Inf·0 = NaN deep in
// the engines. Table-driven over both sides of the boundary.
func TestValidateLambdaBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		lambda float64
		ok     bool
	}{
		{"paper-default", 4, true},
		{"expansion", 0.5, true},
		{"large-safe", 1e30, true}, // (1e30)^10 = 1e300 < MaxFloat64
		{"tiny-safe", 1e-30, true}, // (1e-30)^-10 = 1e300
		{"one", 1, true},
		{"large-overflow", 1e31, false}, // (1e31)^10 = 1e310 = +Inf
		{"tiny-overflow", 1e-31, false}, // (1e-31)^-10 = 1e310 = +Inf
		{"max-float", math.MaxFloat64, false},
		{"denormal", 5e-324, false}, // (5e-324)^10 underflows to 0
		{"zero", 0, false},
		{"negative", -1, false},
		{"inf", math.Inf(1), false},
		{"neg-inf", math.Inf(-1), false},
		{"nan", math.NaN(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateLambda(tc.lambda); (err == nil) != tc.ok {
				t.Fatalf("ValidateLambda(%v) = %v, want ok=%v", tc.lambda, err, tc.ok)
			}
			if _, err := New(NameCompression, tc.lambda, 0); (err == nil) != tc.ok {
				t.Fatalf("Compile at λ=%v: err=%v, want ok=%v", tc.lambda, err, tc.ok)
			}
			// The same boundary must hold for ladder rebuilds and for a
			// schedule's λ_low.
			if tc.lambda > 0 && !math.IsInf(tc.lambda, 0) && !math.IsNaN(tc.lambda) {
				r := Compression(4)
				if _, err := r.LadderFor(tc.lambda); (err == nil) != tc.ok {
					t.Fatalf("LadderFor(%v): want ok=%v", tc.lambda, tc.ok)
				}
				if _, err := Forage(4, ForageOptions{LambdaLow: tc.lambda}); (err == nil) != tc.ok {
					t.Fatalf("Forage λ_low=%v: want ok=%v", tc.lambda, tc.ok)
				}
			}
		})
	}
}

// TestLadderMatchesCompile: a ladder rebuilt at λ2 from a rule compiled at
// λ1 must price every mask, payload combination, and rotation delta exactly
// as the ladder of a rule compiled at λ2 does — the ladder is a re-pricing,
// never a re-derivation, of the rule.
func TestLadderMatchesCompile(t *testing.T) {
	for _, rules := range [][2]*Rule{
		{Compression(4), Compression(0.5)},
		{MustAlignment(3, 4), MustAlignment(0.25, 4)},
	} {
		base, compiled := rules[0], rules[1]
		want := compiled.Ladder()
		ld, err := base.LadderFor(compiled.Lambda())
		if err != nil {
			t.Fatal(err)
		}
		if ld.Lambda() != want.Lambda() {
			t.Fatalf("ladder λ %v, want %v", ld.Lambda(), want.Lambda())
		}
		for m := 0; m < 256; m++ {
			mk := grid.Mask(m)
			if ld.Move(mk) != want.Move(mk) {
				t.Fatalf("%s mask %08b: ladder Move %g, compiled %g", base.Name(), m, ld.Move(mk), want.Move(mk))
			}
			if !base.Stateless() {
				same := grid.Mask(m>>1) & mk
				if ld.MovePay(mk, same) != want.MovePay(mk, same) {
					t.Fatalf("%s mask %08b: ladder MovePay %g, compiled %g",
						base.Name(), m, ld.MovePay(mk, same), want.MovePay(mk, same))
				}
			}
		}
		for d := -deltaBound; d <= deltaBound; d++ {
			if ld.Rot(d) != want.Rot(d) {
				t.Fatalf("%s Δ=%d: ladder rotation pricing mismatch", base.Name(), d)
			}
		}
	}
}

// TestLadderCache: distinct λ values get distinct ladders, repeated values
// hit the memo, and At quantizes steps to the rule's bias epoch.
func TestLadderCache(t *testing.T) {
	ru := MustForage(5, ForageOptions{Epoch: 100, FoodSteps: 250})
	c := NewLadderCache(ru)
	origin := lattice.Point{}
	if l := c.At(0, origin); l.Lambda() != 5 {
		t.Fatalf("step 0 at food: λ=%v, want 5", l.Lambda())
	}
	// Steps 0..249 quantize to epochs 0, 100, 200 — all within the food
	// window, so the cache must still hold a single ladder.
	for _, step := range []uint64{1, 99, 100, 199, 249} {
		if l := c.At(step, origin); l.Lambda() != 5 {
			t.Fatalf("step %d at food: λ=%v, want 5", step, l.Lambda())
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache grew to %d ladders for one λ", c.Len())
	}
	// Step 250 quantizes to epoch 200 < 250: the schedule still reads the
	// food phase even though the raw step is past exhaustion — epochs, not
	// raw steps, are the refresh granularity.
	if l := c.At(250, origin); l.Lambda() != 5 {
		t.Fatalf("step 250 quantizes to epoch 200, want food-phase λ=5, got %v", l.Lambda())
	}
	if l := c.At(300, origin); l.Lambda() != 1 {
		t.Fatalf("step 300 (epoch 300) at exhausted food: λ=%v, want λ_low=1", l.Lambda())
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d ladders, want 2 (λ_high, λ_low)", c.Len())
	}
}

// TestForageBias: the schedule's spatial and temporal structure — λ near
// food while it lasts, λ_low beyond the radius and after exhaustion — plus
// the compiled rule's metadata.
func TestForageBias(t *testing.T) {
	food := lattice.Point{X: 3, Y: -1}
	ru := MustForage(6, ForageOptions{
		LambdaLow: 0.5,
		Radius:    2,
		FoodSteps: 1000,
		Epoch:     10,
		Sites:     []lattice.Point{food},
	})
	if !ru.Biased() {
		t.Fatal("forage rule not Biased")
	}
	if ru.BiasEpoch() != 10 {
		t.Fatalf("BiasEpoch %d, want 10", ru.BiasEpoch())
	}
	if ru.BiasProbe() != food {
		t.Fatalf("BiasProbe %v, want the food site %v", ru.BiasProbe(), food)
	}
	near := food.Neighbor(0).Neighbor(1) // within hex distance 2
	far := lattice.Point{X: 30, Y: 30}
	if got := ru.BiasAt(0, near); got != 6 {
		t.Fatalf("food phase near food: λ=%v, want 6", got)
	}
	if got := ru.BiasAt(0, far); got != 0.5 {
		t.Fatalf("food phase far from food: λ=%v, want 0.5", got)
	}
	if got := ru.BiasAt(1000, near); got != 0.5 {
		t.Fatalf("after exhaustion near food: λ=%v, want 0.5", got)
	}
	// Quantization: step 1005 lives in epoch 1000, which is exhausted;
	// step 999 lives in epoch 990, which is not.
	if got := ru.BiasAt(999, near); got != 6 {
		t.Fatalf("step 999 (epoch 990): λ=%v, want 6", got)
	}
	// An unbiased rule's BiasAt is the fixed λ everywhere.
	fixed := Compression(4)
	if fixed.Biased() || fixed.BiasAt(123, far) != 4 {
		t.Fatal("fixed-λ rule must report its λ from BiasAt")
	}

	// The schedule must capture its own copy of the sites.
	sites := []lattice.Point{{}}
	ru2 := MustForage(6, ForageOptions{Sites: sites, Radius: 1})
	sites[0] = lattice.Point{X: 99, Y: 99}
	if got := ru2.BiasAt(0, lattice.Point{}); got != 6 {
		t.Fatalf("mutating caller's site slice changed the schedule: λ=%v", got)
	}

	if _, err := Forage(4, ForageOptions{Radius: -1}); err == nil {
		t.Fatal("negative radius accepted")
	}
	if _, err := Forage(1e31, ForageOptions{}); err == nil {
		t.Fatal("ladder-unsafe λ_high accepted")
	}
}

// TestForageRegistry: the registry entry compiles the default schedule and
// rejects payload-state overrides.
func TestForageRegistry(t *testing.T) {
	ru, err := New(NameForage, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ru.Name() != NameForage || !ru.Biased() || !ru.Stateless() {
		t.Fatalf("forage registry rule: name=%s biased=%v stateless=%v", ru.Name(), ru.Biased(), ru.Stateless())
	}
	if ru.BiasEpoch() != DefaultBiasEvery {
		t.Fatalf("default epoch %d, want %d", ru.BiasEpoch(), DefaultBiasEvery)
	}
	// DefaultForageFoodSteps itself quantizes into a food-phase epoch (the
	// epoch grid is coarser than the exhaustion step); a step a full epoch
	// later is provably past it.
	if got := ru.BiasAt(2*DefaultForageFoodSteps, lattice.Point{}); got != DefaultForageLambdaLow {
		t.Fatalf("default schedule after exhaustion: λ=%v, want %v", got, DefaultForageLambdaLow)
	}
	if _, err := New(NameForage, 5, 3); err == nil {
		t.Fatal("forage accepted payload states")
	}
}
