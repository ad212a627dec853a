package enumerate

import (
	"sops/internal/config"
	"sops/internal/lattice"
	"sops/internal/move"
)

// TransitionDist returns the exact one-step transition distribution of
// Markov chain M from configuration σ with bias λ: a map from canonical
// configuration Key to transition probability, including the self-loop.
// Each of the 6n (particle, direction) proposals carries probability 1/(6n)
// and is accepted with the Metropolis probability min(1, λ^{e′−e}) when the
// move is valid.
//
// This materializes M's transition matrix row-by-row for small state spaces;
// the exact-stationarity and ergodicity tests power-iterate it and compare
// against Lemma 3.13.
func TransitionDist(sigma *config.Config, lambda float64) map[string]float64 {
	out := make(map[string]float64)
	pts := sigma.Points()
	n := len(pts)
	propose := 1 / float64(6*n)
	self := 0.0
	for _, l := range pts {
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			if !move.Valid(sigma, l, d) {
				self += propose
				continue
			}
			lp := l.Neighbor(d)
			e := sigma.Degree(l)
			ep := sigma.DegreeExcluding(lp, l)
			accept := 1.0
			if ep < e {
				accept = 1.0
				for k := 0; k < e-ep; k++ {
					accept /= lambda
				}
				if accept > 1 {
					// λ < 1 biases toward fewer neighbors; cap at 1.
					accept = 1
				}
			} else if lambda < 1 {
				accept = 1.0
				for k := 0; k < ep-e; k++ {
					accept *= lambda
				}
			}
			next := sigma.Clone()
			next.Move(l, lp)
			out[next.Key()] += propose * accept
			self += propose * (1 - accept)
		}
	}
	out[sigma.Key()] += self
	return out
}

// Reachable returns the distinct configurations (canonicalized) reachable
// from σ in one accepted move of M — every transition with positive
// probability other than the self-loop.
func Reachable(sigma *config.Config) []*config.Config {
	var out []*config.Config
	seen := map[string]bool{sigma.Key(): true}
	for _, l := range sigma.Points() {
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			if !move.Valid(sigma, l, d) {
				continue
			}
			next := sigma.Clone()
			next.Move(l, l.Neighbor(d))
			if k := next.Key(); !seen[k] {
				seen[k] = true
				out = append(out, next.Canonical())
			}
		}
	}
	return out
}
