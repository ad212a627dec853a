package rule

import (
	"fmt"

	"sops/internal/lattice"
)

// Forage defaults; zero fields of ForageOptions select them.
const (
	// DefaultForageLambdaLow is the expanded-phase bias after the food is
	// exhausted: λ_low = 1 sits well below the λ > 2.17 compression
	// threshold, so the swarm provably expands (Cannon et al., Theorem 2).
	DefaultForageLambdaLow = 1.0
	// DefaultForageRadius is the food-disk radius in hex distance.
	DefaultForageRadius = 4
	// DefaultForageFoodSteps is the number of chain steps until the food is
	// exhausted and the compressed phase ends.
	DefaultForageFoodSteps = 60_000
)

// ForageOptions configures the foraging schedule: which sites hold food,
// how far its scent reaches, when it runs out, and how the bias behaves
// away from it. It is also the schedule's wire form (runner.ForageSpec),
// hence the JSON tags. The zero value selects every default: one food site
// at the origin, radius DefaultForageRadius, exhaustion after
// DefaultForageFoodSteps steps, λ_low = DefaultForageLambdaLow, epoch
// DefaultBiasEvery.
type ForageOptions struct {
	// LambdaLow is the bias away from food and after exhaustion (0 selects
	// DefaultForageLambdaLow). The compressed-phase bias near food is the
	// rule's λ.
	LambdaLow float64 `json:"lambda_low,omitempty"`
	// Radius is the food-disk radius in hex distance (0 selects
	// DefaultForageRadius).
	Radius int `json:"radius,omitempty"`
	// FoodSteps is the step count at which the food is exhausted (0 selects
	// DefaultForageFoodSteps).
	FoodSteps uint64 `json:"food_steps,omitempty"`
	// Epoch is the bias epoch length: the schedule is re-read every Epoch
	// steps (0 selects DefaultBiasEvery).
	Epoch uint64 `json:"epoch,omitempty"`
	// Sites are the food locations (empty selects the origin).
	Sites []lattice.Point `json:"sites,omitempty"`
}

// WithDefaults resolves zero fields to the package defaults.
func (o ForageOptions) WithDefaults() ForageOptions {
	if o.LambdaLow == 0 {
		o.LambdaLow = DefaultForageLambdaLow
	}
	if o.Radius == 0 {
		o.Radius = DefaultForageRadius
	}
	if o.FoodSteps == 0 {
		o.FoodSteps = DefaultForageFoodSteps
	}
	if o.Epoch == 0 {
		o.Epoch = DefaultBiasEvery
	}
	if len(o.Sites) == 0 {
		o.Sites = []lattice.Point{{}}
	}
	return o
}

// Normalized returns the canonical form of a possibly-nil schedule:
// defaults resolved, and a schedule equal to the default one collapsed back
// to nil. The collapse keeps the serialized options of a run that never set
// a schedule byte-identical to those of one that spells out the defaults.
func (o *ForageOptions) Normalized() *ForageOptions {
	if o == nil {
		return nil
	}
	r := o.WithDefaults()
	if r.LambdaLow == DefaultForageLambdaLow && r.Radius == DefaultForageRadius &&
		r.FoodSteps == DefaultForageFoodSteps && r.Epoch == DefaultBiasEvery &&
		len(r.Sites) == 1 && r.Sites[0] == (lattice.Point{}) {
		return nil
	}
	r.Sites = append([]lattice.Point(nil), r.Sites...)
	return &r
}

// Forage returns the foraging rule in the spirit of Oh–Richa ("Foraging in
// Particle Systems via Self-Induced Phase Changes"): the compression guard
// and Hamiltonian H(σ) = e(σ), but with the bias modulated over time and
// space by a food schedule. While food remains (step < FoodSteps) a
// particle within Radius of a food site runs compressed at λ (λ_high >
// 2.17); everywhere else, and once the food is exhausted, it runs expanded
// at λ_low < 2.17. The food's depletion is what flips the swarm from the
// compressed to the expanded phase — a self-induced phase change. Depletion
// is modeled as a deterministic clock (the mean-field limit of per-visit
// consumption), which keeps the schedule a pure function of (step, site)
// and the chain exactly reproducible.
func Forage(lambda float64, opts ForageOptions) (*Rule, error) {
	o := opts.WithDefaults()
	if err := ValidateLambda(o.LambdaLow); err != nil {
		return nil, fmt.Errorf("rule: forage λ_low invalid: %w", err)
	}
	if o.Radius < 0 {
		return nil, fmt.Errorf("rule: forage radius must be non-negative, got %d", o.Radius)
	}
	sites := append([]lattice.Point(nil), o.Sites...)
	d := compressionDef(NameForage, true, true, true)
	d.Bias = func(step uint64, site lattice.Point) float64 {
		if step < o.FoodSteps && nearFood(sites, site, o.Radius) {
			return lambda
		}
		return o.LambdaLow
	}
	d.BiasEvery = o.Epoch
	d.BiasProbe = sites[0]
	return Compile(d, lambda)
}

// MustForage is Forage but panics on error.
func MustForage(lambda float64, opts ForageOptions) *Rule {
	r, err := Forage(lambda, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// nearFood reports whether site is within radius (hex distance) of any
// food site.
func nearFood(sites []lattice.Point, site lattice.Point, radius int) bool {
	for _, s := range sites {
		if site.Dist(s) <= radius {
			return true
		}
	}
	return false
}
