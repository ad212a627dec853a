// Package enumerate exactly enumerates and counts connected particle system
// configurations (fixed polyforms on the triangular lattice, i.e. distinct up
// to translation only, as defined in §2.2 of the paper). It powers the §5
// analysis artifacts: the 11 three-particle configurations of Fig 11, the
// perimeter census behind the Peierls arguments, the partition-function
// bounds of Lemmas 5.1–5.6, and, for small n, the exact stationary
// distribution and one-step transition kernel of the chain.
package enumerate

import (
	"sort"

	"sops/internal/config"
	"sops/internal/lattice"
)

// All returns every connected configuration of n ≥ 1 particles, distinct up
// to translation, in deterministic order. For n ≥ 10 the count exceeds 3.6
// hundred thousand; callers should prefer Count for bare tallies.
func All(n int) []*config.Config {
	if n < 1 {
		panic("enumerate: All requires n ≥ 1")
	}
	cur := map[string]*config.Config{config.New(lattice.Point{}).Key(): config.New(lattice.Point{})}
	for size := 1; size < n; size++ {
		next := make(map[string]*config.Config, len(cur)*4)
		for _, c := range cur {
			for _, p := range c.Points() {
				for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
					q := p.Neighbor(d)
					if c.Has(q) {
						continue
					}
					grown := c.Clone()
					grown.Add(q)
					key := grown.Key()
					if _, ok := next[key]; !ok {
						next[key] = grown.Canonical()
					}
				}
			}
		}
		cur = next
	}
	keys := make([]string, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*config.Config, len(keys))
	for i, k := range keys {
		out[i] = cur[k]
	}
	return out
}

// AllHoleFree returns every connected hole-free configuration of n particles
// distinct up to translation: the state space Ω* of Markov chain M.
func AllHoleFree(n int) []*config.Config {
	all := All(n)
	out := all[:0:0]
	for _, c := range all {
		if !c.HasHoles() {
			out = append(out, c)
		}
	}
	return out
}

// Count returns the number of connected configurations of each size 1..n,
// distinct up to translation, using Redelmeier's untried-set algorithm (no
// configuration storage, each counted exactly once). counts[k] is the tally
// for size k; counts[0] is unused.
//
// This is an algorithm independent from All and serves as its cross-check.
func Count(n int) []int64 {
	if n < 1 {
		panic("enumerate: Count requires n ≥ 1")
	}
	counts := make([]int64, n+1)
	origin := lattice.Point{}
	// A cell is admissible if it is lexicographically greater than the
	// origin in (Y, X) order; fixing the origin as the lex-min cell of every
	// generated configuration makes translation classes unique.
	admissible := func(p lattice.Point) bool { return origin.Less(p) }

	seen := map[lattice.Point]bool{origin: true}

	var rec func(untried []lattice.Point, size int)
	rec = func(untried []lattice.Point, size int) {
		// Iterating from the end, position i means "include untried[i],
		// permanently exclude untried[i+1:]" (excluded cells stay seen for
		// the rest of this level and all descendants).
		for i := len(untried) - 1; i >= 0; i-- {
			p := untried[i]
			counts[size+1]++
			if size+1 == n {
				continue
			}
			added := make([]lattice.Point, 0, lattice.NumDirs)
			for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
				q := p.Neighbor(d)
				if !admissible(q) || seen[q] {
					continue
				}
				seen[q] = true
				added = append(added, q)
			}
			// The three-index slice forces append to copy, so descendants
			// never alias this level's backing array.
			rec(append(untried[:i:i], added...), size+1)
			for _, q := range added {
				delete(seen, q)
			}
		}
	}
	initial := make([]lattice.Point, 0, lattice.NumDirs)
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		q := origin.Neighbor(d)
		if admissible(q) {
			seen[q] = true
			initial = append(initial, q)
		}
	}
	counts[1] = 1
	rec(initial, 1)
	return counts
}

// CensusRow describes the configurations of one perimeter value.
type CensusRow struct {
	Perimeter int
	// Count is the number of connected hole-free configurations with this
	// perimeter (c_k in §4.1).
	Count int64
}

// Census returns the perimeter census of connected hole-free configurations
// of n particles: the exact values c_k used in the Peierls arguments of
// Theorems 4.5 and 5.7, sorted by perimeter.
func Census(n int) []CensusRow {
	byP := map[int]int64{}
	for _, c := range AllHoleFree(n) {
		byP[c.Perimeter()]++
	}
	out := make([]CensusRow, 0, len(byP))
	for p, cnt := range byP {
		out = append(out, CensusRow{Perimeter: p, Count: cnt})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Perimeter < out[j].Perimeter })
	return out
}
