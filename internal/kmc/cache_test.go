package kmc

import (
	"testing"

	"sops/internal/config"
	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/rule"
)

// TestMaskCacheUnderGrowth drives expanding chains (λ ≤ 1, fixed and
// biased) whose particles keep crossing the borders of the particle index
// and of the occupancy grid, and checks after every event that each cached
// mask equals a fresh window read and each maintained weight its
// recomputation (CheckWeightSums). The index reshapes many times and the
// grid grows at least once per case, so the dirty walk is exercised right
// at the index margin and across every reallocation.
func TestMaskCacheUnderGrowth(t *testing.T) {
	forage := rule.MustForage(1, rule.ForageOptions{LambdaLow: 0.5, Radius: 3, FoodSteps: 20_000, Epoch: 256})
	const events = 200_000
	cases := []struct {
		name  string
		start *config.Config
		ru    *rule.Rule
		seed  uint64
	}{
		{"line-l1", config.Line(30), rule.Compression(1), 1},
		{"line-l0.5", config.Line(30), rule.Compression(0.5), 2},
		{"spiral-l0.5", config.Spiral(30), rule.Compression(0.5), 3},
		{"spiral-l1", config.Spiral(30), rule.Compression(1), 4},
		{"forage-spiral", config.Spiral(30), forage, 5},
		{"forage-line", config.Line(30), forage, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewWithRule(tc.start, tc.ru, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := c.G.Bounds()
			// grid.New pads the start's bounding box by DefaultSlack and
			// grows once a particle comes within 2 cells of the border.
			winLo := lattice.Point{X: lo.X - grid.DefaultSlack + 2, Y: lo.Y - grid.DefaultSlack + 2}
			winHi := lattice.Point{X: hi.X + grid.DefaultSlack - 2, Y: hi.Y + grid.DefaultSlack - 2}
			grew := false
			reshapes := 0
			for c.Events() < events {
				ev := c.Events()
				geom := [4]int{c.idx.minX, c.idx.minY, c.idx.w, c.idx.h}
				c.Run(1)
				if c.Events() == ev {
					continue
				}
				if geom != [4]int{c.idx.minX, c.idx.minY, c.idx.w, c.idx.h} {
					reshapes++
				}
				for _, p := range c.Pts {
					if p.X < winLo.X || p.Y < winLo.Y || p.X > winHi.X || p.Y > winHi.Y {
						grew = true
					}
				}
				if err := c.CheckWeightSums(); err != nil {
					t.Fatalf("after event %d (step %d): %v", c.Events(), c.Steps(), err)
				}
			}
			t.Logf("%d index reshapes, grid grew: %v", reshapes, grew)
			if reshapes < 10 || !grew {
				t.Fatalf("%d index reshapes, grid grew: %v; the run no longer crosses the borders", reshapes, grew)
			}
		})
	}
}
