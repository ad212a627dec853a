package amoebot

import (
	"testing"

	"sops/internal/config"
	"sops/internal/rule"
)

// TestActivationZeroAlloc pins the activation path at zero allocations: once
// the windows have grown to the trajectory's extent, a batch of activations
// under either scheduler allocates nothing, for the fixed-λ compression
// rule, the payload (align) rule and the biased-ladder (forage) rule. The
// Poisson scheduler is driven both one StepActivation at a time and by one
// RunActivations call per batch, which runs compression in runPlain.
func TestActivationZeroAlloc(t *testing.T) {
	rules := []struct {
		name   string
		ru     *rule.Rule
		states int
	}{
		{"compression", rule.Compression(4), 0},
		{"align", rule.MustAlignment(6, 3), 3},
		{"forage", rule.MustForage(4, rule.ForageOptions{FoodSteps: 60_000, Epoch: 1000}), 0},
	}
	type stepper interface {
		StepActivation() bool
		RunActivations(uint64)
	}
	schedulers := []struct {
		name string
		run  bool // one RunActivations call per batch
		make func(*World, Protocol) stepper
	}{
		{"poisson", false, func(w *World, p Protocol) stepper { return NewPoissonScheduler(w, p, 3) }},
		{"poisson-run", true, func(w *World, p Protocol) stepper { return NewPoissonScheduler(w, p, 3) }},
		{"uniform", false, func(w *World, p Protocol) stepper { return NewUniformScheduler(w, p, 3) }},
	}
	for _, rc := range rules {
		for _, sc := range schedulers {
			t.Run(rc.name+"/"+sc.name, func(t *testing.T) {
				w, err := NewWorld(config.Line(40))
				if err != nil {
					t.Fatal(err)
				}
				if rc.states > 0 {
					w.SeedPayload(rc.states, 3)
				}
				s := sc.make(w, MustNewMetropolis(rc.ru))
				batch := func() {
					before := w.Activations()
					if sc.run {
						s.RunActivations(10_000)
					} else {
						for i := 0; i < 10_000; i++ {
							s.StepActivation()
						}
					}
					if w.Activations() != before+10_000 {
						t.Fatal("scheduler ran dry")
					}
				}
				// Warm up past the food clock and the compression transient,
				// so the windows and the ladder cache have their final size.
				for i := 0; i < 10; i++ {
					batch()
				}
				// One run: AllocsPerRun divides by the run count, and one
				// allocation in a batch must fail the test.
				if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
					t.Errorf("%v allocations in 10k steady-state activations, want 0", allocs)
				}
			})
		}
	}
}
