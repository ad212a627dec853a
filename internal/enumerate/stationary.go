package enumerate

import (
	"math"

	"sops/internal/config"
	"sops/internal/metrics"
)

// Stationary is the exact stationary distribution π of Markov chain M over
// the hole-free state space Ω* for a fixed particle count and bias, computed
// by brute-force enumeration (Lemma 3.13: π(σ) = λ^e(σ)/Z).
type Stationary struct {
	N      int
	Lambda float64
	// States holds all of Ω*, in deterministic order.
	States []*config.Config
	// Prob[i] is π(States[i]).
	Prob []float64
	// LogZ is ln of the partition function Z = Σ λ^e(σ).
	LogZ float64
}

// ExactStationary enumerates Ω* for n particles and returns π for bias λ.
// Weights are accumulated in log space so large λ and n stay stable.
func ExactStationary(n int, lambda float64) *Stationary {
	states := AllHoleFree(n)
	logLam := math.Log(lambda)
	logW := make([]float64, len(states))
	maxLog := math.Inf(-1)
	for i, c := range states {
		logW[i] = float64(c.Edges()) * logLam
		if logW[i] > maxLog {
			maxLog = logW[i]
		}
	}
	var sum float64
	for _, lw := range logW {
		sum += math.Exp(lw - maxLog)
	}
	logZ := maxLog + math.Log(sum)
	prob := make([]float64, len(states))
	for i, lw := range logW {
		prob[i] = math.Exp(lw - logZ)
	}
	return &Stationary{N: n, Lambda: lambda, States: states, Prob: prob, LogZ: logZ}
}

// ExpectedPerimeter returns E_π[p(σ)].
func (s *Stationary) ExpectedPerimeter() float64 {
	var e float64
	for i, c := range s.States {
		e += s.Prob[i] * float64(c.Perimeter())
	}
	return e
}

// ExpectedEdges returns E_π[e(σ)].
func (s *Stationary) ExpectedEdges() float64 {
	var e float64
	for i, c := range s.States {
		e += s.Prob[i] * float64(c.Edges())
	}
	return e
}

// TailProbPerimeterAtLeast returns P_π(p(σ) ≥ k): the quantity bounded by the
// Peierls argument of Theorem 4.5.
func (s *Stationary) TailProbPerimeterAtLeast(k int) float64 {
	var pr float64
	for i, c := range s.States {
		if c.Perimeter() >= k {
			pr += s.Prob[i]
		}
	}
	return pr
}

// LogZLowerBoundTrivial is ln of the trivial bound Z ≥ λ^{−pmin} expressed
// via edges: Z ≥ λ^{e_max}... — the bound used in Theorem 4.5 is
// Z ≥ w(σ_min) = λ^{−pmin} in perimeter weights. In edge weights (differing
// by the constant factor λ^{3n−3}, Corollary 3.14) the same bound is
// Z_e ≥ λ^{e_max(n)}. This helper returns ln λ^{e_max(n)} for comparison
// against LogZ, which is also in edge weights.
func LogZLowerBoundTrivial(n int, lambda float64) float64 {
	return float64(metrics.MaxEdges(n)) * math.Log(lambda)
}
