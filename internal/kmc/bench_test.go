package kmc

import (
	"fmt"
	"testing"

	"sops/internal/config"
	"sops/internal/rule"
)

// BenchmarkKMCEvent measures the cost of one applied kMC event (weighted
// sampling + move + dirty-neighborhood re-classification) on an equilibrated
// λ=4 cluster of 100 particles, where holds are long and the dirty
// neighborhood is dense — the engine's worst-case update regime. ns/op is
// the cost of a 10_000-equivalent-step batch; the reported ns/event divides
// out the events that actually fired.
func BenchmarkKMCEvent(b *testing.B) {
	c := MustNew(config.Spiral(100), 4, 1)
	c.Run(1_000_000) // settle into the stationary regime
	b.ResetTimer()
	ev0 := c.Events()
	for i := 0; i < b.N; i++ {
		c.Run(10_000)
	}
	if events := c.Events() - ev0; events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
	}
}

// BenchmarkKMCEventSpiral is BenchmarkKMCEvent at the shape of the
// repository benchmark's kmc-spiral task: n=1000 from the spiral at λ=4,
// settled for one task's 5M steps first. A 100_000-step batch fires about a
// thousand events; ns/event divides them out.
func BenchmarkKMCEventSpiral(b *testing.B) {
	c := MustNew(config.Spiral(1000), 4, 1)
	c.Run(5_000_000)
	b.ResetTimer()
	ev0 := c.Events()
	for i := 0; i < b.N; i++ {
		c.Run(100_000)
	}
	if events := c.Events() - ev0; events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
	}
}

// BenchmarkKMCSharded measures event throughput of the stripe-sharded
// engine against the sequential chain (the shards=1 sub-benchmark) at two
// system sizes. λ=2 keeps the run event-dominated: expansion accepts most
// proposals everywhere in the blob, so the decomposition's concurrency is
// actually exercised (at λ=4 a compact cluster spends its time in geometric
// holds, which cost O(1) regardless of shard count). Speedup shows in
// ns/event across the shard counts; on a single-core host the sharded
// engine only pays its barrier overhead.
func BenchmarkKMCSharded(b *testing.B) {
	type engine interface {
		Run(n uint64) uint64
		Events() uint64
	}
	for _, n := range []int{10_000, 100_000} {
		sigma := config.Spiral(n)
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(b *testing.B) {
				var c engine
				if shards == 1 {
					c = MustNew(sigma, 2, 1)
				} else {
					sc, err := NewSharded(sigma, 2, 1, shards)
					if err != nil {
						b.Fatal(err)
					}
					// Quantile cuts merge on dense geometries; report the
					// effective decomposition rather than demanding one.
					if got := sc.Shards(); got < 2 {
						b.Fatalf("spiral(%d) degenerated to %d stripes", n, got)
					} else {
						b.ReportMetric(float64(got), "stripes")
					}
					c = sc
				}
				c.Run(uint64(2 * n)) // settle past the initial all-surface burst
				b.ResetTimer()
				ev0 := c.Events()
				for i := 0; i < b.N; i++ {
					c.Run(50_000)
				}
				if events := c.Events() - ev0; events > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
					b.ReportMetric(float64(events)/float64(b.N), "events/op")
				}
			})
		}
	}
}

// BenchmarkLambdaRefresh measures the engine half of a bias-epoch switch:
// repricing every particle's slot weights at the epoch's λ(site) and
// rebuilding the Fenwick tree from scratch. Biased rules pay this once per
// epoch, so it bounds how short an epoch the schedule can afford; ns/op
// divided by particles gives the per-particle refresh cost.
func BenchmarkLambdaRefresh(b *testing.B) {
	ru, err := rule.Forage(4, rule.ForageOptions{LambdaLow: 0.7, Radius: 12})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := MustNewWithRule(config.Spiral(n), ru, 1)
			c.Run(uint64(2 * n)) // roughen the boundary past the fresh build
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.advanceEpoch()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/particle")
		})
	}
}

// BenchmarkKMCBuild measures engine construction (weight table, index,
// initial classification of every particle, Fenwick build).
func BenchmarkKMCBuild(b *testing.B) {
	sigma := config.Spiral(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if MustNew(sigma, 4, uint64(i+1)).TotalWeight() <= 0 {
			b.Fatal("spiral has no valid moves?")
		}
	}
}
