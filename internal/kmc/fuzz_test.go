package kmc

import (
	"math/rand/v2"
	"testing"

	"sops/internal/config"
	"sops/internal/rule"
)

// FuzzKMCWeights drives the stateless engine's incremental state — cached
// masks, maintained weights, Fenwick tree, particle index — from a random
// connected start (n ≤ 40, config.RandomConnected) under a fuzz-chosen rule
// (compression, an ablated variant, or forage), λ in [0.3, 8], seed and
// event budget, and checks it against a from-scratch recomputation
// (CheckWeightSums) after every chunk of steps. A Reset leg then re-runs
// the start on the used chain, which must match a fresh chain bit for bit.
func FuzzKMCWeights(f *testing.F) {
	f.Add(uint8(30), uint16(0), uint8(0), uint64(1), uint16(500), uint8(7))      // λ=0.3 expands
	f.Add(uint8(39), uint16(65535), uint8(0), uint64(2), uint16(300), uint8(63)) // λ=8 compresses
	f.Add(uint8(20), uint16(20000), uint8(1), uint64(3), uint16(400), uint8(1))  // no degree guard
	f.Add(uint8(25), uint16(30000), uint8(4), uint64(4), uint16(800), uint8(31)) // forage
	f.Add(uint8(0), uint16(9000), uint8(2), uint64(5), uint16(50), uint8(3))     // one particle

	f.Fuzz(func(t *testing.T, nb uint8, lb uint16, sel uint8, seed uint64, budget uint16, chunk uint8) {
		n := 1 + int(nb)%40
		lambda := 0.3 + 7.7*float64(lb)/65535
		events := uint64(budget % 2048)
		steps := 1 + uint64(chunk)%128
		var ru *rule.Rule
		switch sel % 5 {
		case 0:
			ru = rule.Compression(lambda)
		case 1:
			ru = rule.CompressionVariant(lambda, false, true, true)
		case 2:
			ru = rule.CompressionVariant(lambda, true, false, true)
		case 3:
			ru = rule.CompressionVariant(lambda, true, true, false)
		default:
			var err error
			ru, err = rule.Forage(lambda, rule.ForageOptions{
				LambdaLow: 8.3 - lambda,
				Radius:    int(sel>>3) % 4,
				FoodSteps: uint64(budget) * 4,
				Epoch:     64,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		start := config.RandomConnected(rand.New(rand.NewPCG(seed, 1)), n)

		// run advances c in chunks until it has fired events more events
		// (or a chunk cap, for starts with no moves), checking after each.
		run := func(c *Chain) {
			target := c.Events() + events
			for k := 0; k < 4096 && c.Events() < target; k++ {
				c.Run(steps)
				if err := c.CheckWeightSums(); err != nil {
					t.Fatalf("after %d steps, %d events: %v", c.Steps(), c.Events(), err)
				}
			}
		}
		c, err := NewWithRule(start, ru, seed)
		if err != nil {
			t.Fatal(err)
		}
		run(c)

		if err := c.Reset(start.Points(), ru, seed+1); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewWithRule(start, ru, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		run(c)
		run(fresh)
		if got, want := fingerprint(c), fingerprint(fresh); got != want {
			t.Fatalf("Reset leg diverged from a fresh chain:\n got %s\nwant %s", got, want)
		}
	})
}
