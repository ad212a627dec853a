package runner

import (
	"fmt"
	"strings"

	"sops/internal/lattice"
	"sops/internal/rule"
)

// RuleForage is the foraging rule (Oh–Richa style self-induced phase
// change): compression's Hamiltonian under a food-driven time-varying,
// site-dependent bias. Runs of this rule take the schedule from
// Options.Forage (nil selects every default).
const RuleForage = rule.NameForage

// ForageSpec is the wire form of the foraging schedule: which sites hold
// food, how far its scent reaches, when it runs out, and how the bias
// behaves away from it. Zero fields select the rule package defaults. The
// zero value (and nil) is the canonical default schedule; Normalized
// collapses a spec that resolves to the defaults back to nil so option
// digests of pre-existing runs are unaffected.
type ForageSpec struct {
	// LambdaLow is the bias λ_low away from food and after exhaustion
	// (0 selects rule.DefaultForageLambdaLow = 1). The compressed-phase
	// bias near food is Options.Lambda.
	LambdaLow float64 `json:"lambda_low,omitempty"`
	// Radius is the food-disk radius in hex distance (0 selects
	// rule.DefaultForageRadius).
	Radius int `json:"radius,omitempty"`
	// FoodSteps is the iteration count at which the food is exhausted
	// (0 selects rule.DefaultForageFoodSteps).
	FoodSteps uint64 `json:"food_steps,omitempty"`
	// Epoch is the bias epoch length: the schedule is re-read every Epoch
	// iterations (0 selects rule.DefaultBiasEvery).
	Epoch uint64 `json:"epoch,omitempty"`
	// Sites are the food locations (empty selects the origin).
	Sites []Point `json:"sites,omitempty"`
}

// WithDefaults resolves zero fields to the rule package defaults,
// mirroring the rule package's own resolution of ForageOptions.
func (f ForageSpec) WithDefaults() ForageSpec {
	if f.LambdaLow == 0 {
		f.LambdaLow = rule.DefaultForageLambdaLow
	}
	if f.Radius == 0 {
		f.Radius = rule.DefaultForageRadius
	}
	if f.FoodSteps == 0 {
		f.FoodSteps = rule.DefaultForageFoodSteps
	}
	if f.Epoch == 0 {
		f.Epoch = rule.DefaultBiasEvery
	}
	if len(f.Sites) == 0 {
		f.Sites = []Point{{}}
	}
	return f
}

// isDefault reports whether the resolved spec equals the all-defaults
// schedule — the schedule a nil spec selects.
func (f ForageSpec) isDefault() bool {
	return f.LambdaLow == rule.DefaultForageLambdaLow &&
		f.Radius == rule.DefaultForageRadius &&
		f.FoodSteps == rule.DefaultForageFoodSteps &&
		f.Epoch == rule.DefaultBiasEvery &&
		len(f.Sites) == 1 && f.Sites[0] == Point{}
}

// Normalized returns the canonical form of a possibly-nil spec: defaults
// resolved, and a spec equal to the default schedule collapsed back to
// nil. The collapse keeps the serialized Options of every pre-existing run
// byte-identical — a run that never set Forage must digest (and journal)
// exactly as it did before the field existed.
func (f *ForageSpec) Normalized() *ForageSpec {
	if f == nil {
		return nil
	}
	r := f.WithDefaults()
	if r.isDefault() {
		return nil
	}
	r.Sites = append([]Point(nil), r.Sites...)
	return &r
}

// ruleOptions converts the spec to the rule package's schedule options.
// A nil spec converts to the zero (all-defaults) options.
func (f *ForageSpec) ruleOptions() rule.ForageOptions {
	if f == nil {
		return rule.ForageOptions{}
	}
	var sites []lattice.Point
	for _, p := range f.Sites {
		sites = append(sites, lattice.Point{X: p.X, Y: p.Y})
	}
	return rule.ForageOptions{
		LambdaLow: f.LambdaLow,
		Radius:    f.Radius,
		FoodSteps: f.FoodSteps,
		Epoch:     f.Epoch,
		Sites:     sites,
	}
}

// cacheKey renders the schedule identity as a string, the part of the
// arena's rule cache key that distinguishes two forage rules compiled at
// the same (name, λ, states). The empty string is the fixed-λ (no
// schedule) identity.
func (f *ForageSpec) cacheKey() string {
	if f == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "low=%g;r=%d;food=%d;epoch=%d;sites=", f.LambdaLow, f.Radius, f.FoodSteps, f.Epoch)
	for _, p := range f.Sites {
		fmt.Fprintf(&b, "(%d,%d)", p.X, p.Y)
	}
	return b.String()
}

// NewRule compiles a task's rule axis: the named rule at λ with the
// payload-state override, which only the alignment rule carries (the
// stateless rules drop it), and — for the forage rule — the bias schedule.
// A schedule on any other rule is an error.
func NewRule(name string, lambda float64, states int, forage *ForageSpec) (*rule.Rule, error) {
	if name != RuleAlignment {
		states = 0
	}
	if forage == nil {
		return rule.New(name, lambda, states)
	}
	if name != RuleForage {
		return nil, fmt.Errorf("runner: a Forage schedule requires Rule %q", RuleForage)
	}
	return rule.Forage(lambda, forage.ruleOptions())
}
