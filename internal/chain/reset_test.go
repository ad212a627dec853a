package chain

import (
	"testing"

	"sops/internal/config"
	"sops/internal/rule"
)

// TestResetMatchesFresh drives one Metropolis chain through a schedule of
// Reset calls with varying rules, sizes, and seeds, and asserts every leg's
// trajectory is bit-identical to a freshly constructed chain.
func TestResetMatchesFresh(t *testing.T) {
	align, err := rule.Alignment(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The forage legs cross the λ switch at 20k of the 50k test steps, so a
	// Reset into (and out of) a biased rule must rebuild the λ-epoch state
	// along with the rule tables.
	forage, err := rule.Forage(5, rule.ForageOptions{
		LambdaLow: 0.8,
		Radius:    4,
		FoodSteps: 20_000,
		Epoch:     512,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ru   *rule.Rule
		cfg  *config.Config
		seed uint64
	}{
		{"compression-spiral", rule.Compression(4), config.Spiral(60), 7},
		{"alignment-line", align, config.Line(25), 11},
		{"forage-spiral", forage, config.Spiral(50), 19},
		{"compression-line", rule.Compression(2), config.Line(90), 13},
		{"alignment-spiral", align, config.Spiral(40), 17},
		{"forage-line", forage, config.Line(35), 23},
	}
	reused, err := NewWithRule(cases[0].cfg, cases[0].ru, 1)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 50_000
	for _, tc := range cases {
		if err := reused.Reset(tc.cfg.Points(), tc.ru, tc.seed); err != nil {
			t.Fatalf("%s: Reset: %v", tc.name, err)
		}
		fresh, err := NewWithRule(tc.cfg, tc.ru, tc.seed)
		if err != nil {
			t.Fatalf("%s: NewWithRule: %v", tc.name, err)
		}
		reused.Run(steps)
		fresh.Run(steps)
		if reused.Steps() != fresh.Steps() || reused.Accepted() != fresh.Accepted() ||
			reused.Rotations() != fresh.Rotations() {
			t.Fatalf("%s: counters (%d, %d, %d), want (%d, %d, %d)", tc.name,
				reused.Steps(), reused.Accepted(), reused.Rotations(),
				fresh.Steps(), fresh.Accepted(), fresh.Rotations())
		}
		if reused.Energy() != fresh.Energy() || reused.Edges() != fresh.Edges() ||
			reused.Perimeter() != fresh.Perimeter() {
			t.Fatalf("%s: observables (%d, %d, %d), want (%d, %d, %d)", tc.name,
				reused.Energy(), reused.Edges(), reused.Perimeter(),
				fresh.Energy(), fresh.Edges(), fresh.Perimeter())
		}
		for i := range reused.Pts {
			if reused.Pts[i] != fresh.Pts[i] {
				t.Fatalf("%s: particle %d at %v, want %v", tc.name, i, reused.Pts[i], fresh.Pts[i])
			}
			if reused.Payload(i) != fresh.Payload(i) {
				t.Fatalf("%s: particle %d payload %d, want %d", tc.name, i, reused.Payload(i), fresh.Payload(i))
			}
		}
	}
}
