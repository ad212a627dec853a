package rule

import (
	"testing"

	"sops/internal/grid"
	"sops/internal/lattice"
)

// BenchmarkRuleClassify measures the per-slot cost of rule-table dispatch:
// the guard and ladder lookups an engine makes to price one proposal,
// cycling through all 256 pair masks for both the stateless compression
// fast path and the payload alignment path. This is the table-indirection
// layer sitting inside the ~25 ns Metropolis step, so it is
// benchgate-guarded in CI against silent regression.
func BenchmarkRuleClassify(b *testing.B) {
	b.Run("compression", func(b *testing.B) {
		r := Compression(4)
		ld := r.Ladder()
		var sink float64
		for i := 0; i < b.N; i++ {
			m := grid.Mask(i)
			if r.Allowed(m) {
				sink += ld.Move(m)
			}
		}
		_ = sink
	})
	b.Run("align", func(b *testing.B) {
		r := MustAlignment(4, 6)
		ld := r.Ladder()
		var sink float64
		for i := 0; i < b.N; i++ {
			m := grid.Mask(i)
			same := m & grid.Mask(i>>8)
			if r.Allowed(m) {
				sink += ld.MovePay(m, same)
			}
		}
		_ = sink
	})
}

// BenchmarkLambdaRefresh measures the rule-layer half of a bias-epoch
// switch: rebuilding the 256-entry translation table plus the power table
// at a new λ ("rebuild"), and the memoized path a
// schedule that revisits a λ takes ("cached"). Biased engines pay the
// rebuild once per distinct λ and the cached lookup once per particle per
// epoch, so both sit on the epoch-refresh critical path guarded in CI.
func BenchmarkLambdaRefresh(b *testing.B) {
	b.Run("rebuild", func(b *testing.B) {
		r := Compression(4)
		lams := [2]float64{5, 0.7}
		for i := 0; i < b.N; i++ {
			if _, err := r.LadderFor(lams[i&1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		ru := MustForage(5, ForageOptions{LambdaLow: 0.7, FoodSteps: 1 << 40})
		c := NewLadderCache(ru)
		site := lattice.Point{}
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += c.At(uint64(i), site).Lambda()
		}
		_ = sink
	})
}
