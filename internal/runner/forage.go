package runner

import (
	"fmt"
	"strings"

	"sops/internal/rule"
)

// RuleForage is the foraging rule (Oh–Richa style self-induced phase
// change): compression's Hamiltonian under a food-driven time-varying,
// site-dependent bias. Runs of this rule take the schedule from
// Options.Forage (nil selects every default).
const RuleForage = rule.NameForage

// ForageSpec is the foraging schedule, rule.ForageOptions: zero fields
// select the rule package defaults, and Normalized collapses a schedule
// that resolves to the defaults back to nil, so option digests of runs
// that never set one are unaffected.
type ForageSpec = rule.ForageOptions

// scheduleKey renders the schedule identity as a string, the part of the
// arena's rule cache key that distinguishes two forage rules compiled at
// the same (name, λ, states). The empty string is the fixed-λ (no
// schedule) identity.
func scheduleKey(f *ForageSpec) string {
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
	return rule.Forage(lambda, *forage)
}
