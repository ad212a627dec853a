package amoebot

import (
	"testing"

	"sops/internal/config"
)

// checkedProtocol wraps Compression and, at every activation of an expanded
// particle, cross-checks the mask-table fast paths against the pre-refactor
// oracle over the cell index before delegating.
type checkedProtocol struct {
	inner Protocol
	t     *testing.T
}

func (cp *checkedProtocol) Activate(a *Activation) {
	if a.Expanded() {
		if got, want := a.SatisfiesMoveProperties(), a.satisfiesMovePropertiesOracle(); got != want {
			cp.t.Fatalf("SatisfiesMoveProperties mask=%v oracle=%v at tail %v head %v",
				got, want, a.p.tail, a.p.head)
		}
		if got, want := a.TailDegree(), tailDegreeOracle(a); got != want {
			cp.t.Fatalf("TailDegree grid=%d oracle=%d at %v", got, want, a.p.tail)
		}
		if got, want := a.HeadDegree(), headDegreeOracle(a); got != want {
			cp.t.Fatalf("HeadDegree grid=%d oracle=%d at %v", got, want, a.p.head)
		}
	}
	cp.inner.Activate(a)
}

func tailDegreeOracle(a *Activation) int {
	n := 0
	for d := 0; d < 6; d++ {
		if a.w.tailAt(a.p.tail.Neighbors()[d], a.p.id) {
			n++
		}
	}
	return n
}

func headDegreeOracle(a *Activation) int {
	n := 0
	for d := 0; d < 6; d++ {
		if a.w.tailAt(a.p.head.Neighbors()[d], a.p.id) {
			n++
		}
	}
	return n
}

// TestWorldGridAgreesWithOracle runs the full distributed stack with the
// cross-checking protocol: every expanded activation compares the tail-grid
// mask path with the cell-index oracle, and world invariants (including the
// tail grid) are verified periodically.
func TestWorldGridAgreesWithOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		w, err := NewWorld(config.Line(40))
		if err != nil {
			t.Fatal(err)
		}
		s := NewPoissonScheduler(w, &checkedProtocol{inner: MustNewCompression(4), t: t}, seed)
		for batch := 0; batch < 40; batch++ {
			s.RunActivations(2000)
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
		}
		if !w.Config().Connected() {
			t.Fatalf("seed %d: final configuration disconnected", seed)
		}
	}
}
