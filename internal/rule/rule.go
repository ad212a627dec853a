// Package rule turns the hard-coded move logic of the compression Markov
// chain M into a pluggable layer: a Rule is a local guard (which moves are
// structurally admissible, as a function of the 8-cell pair mask) plus a
// local Hamiltonian contribution (how much a move or payload change shifts
// H(σ), the exponent of the stationary weight λ^{H(σ)}), compiled at
// construction into the same kind of 256-entry mask-indexed tables the
// engines already consume. The Metropolis chain, the rejection-free kMC
// engine, and the distributed amoebot protocol all run any Rule; adding a
// new local stochastic algorithm is one Def plus a registry entry, not a
// fork of the engines.
//
// A Def declares the rule piecewise; every piece sees only the canonical
// local views the grid extracts in O(1):
//
//   - the pair mask m of a move (ℓ, ℓ′ = ℓ+d): the occupancy of the 8 cells
//     of N(ℓ ∪ ℓ′) in grid.Mask order, direction-canonical;
//   - the same-state submask: the bits of m whose per-cell payload equals
//     the moving particle's (payload rules only);
//   - the 6-bit occupied-neighbor masks filtered by payload state
//     (rotation moves only).
//
// The Hamiltonian is declared as deltas that decompose into an occupancy
// term and a payload term, ΔH(move) = OccDelta(m) + PayDelta(same), and a
// per-site potential RotPot for payload changes. Compile tabulates every
// piece: guards and deltas become 256-entry tables, and the rule's Ladder
// prices a move of ΔH at min(1, λ^ΔH) — the Metropolis acceptance and the
// kMC slot weight alike — from a 256-entry translation table and a 21-entry
// power table, so engine hot paths stay table-driven and allocation-free.
// rule.Compression(λ) reproduces chain M bit for bit; rule.Alignment(λ, k)
// is the oriented-particle alignment chain of Kedia–Oh–Randall (2022).
package rule

import (
	"fmt"
	"math"
	"math/bits"

	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/move"
)

// MaxStates bounds the per-particle payload state count k. Payloads are
// stored in one byte per cell and every engine keeps a slot buffer of
// 6 + (k−1) entries, so the bound is generous; it exists to catch absurd
// inputs, not to save memory.
const MaxStates = 64

// deltaBound is the largest |ΔH| a single move or payload change may have:
// the occupancy and payload terms each read at most 5 cells per side, so
// their sum is within ±10 and one 21-entry λ-power ladder prices every
// transition. Compile rejects Defs that exceed it.
const deltaBound = 10

// Def declares a rule: the guard and the Hamiltonian contributions, each a
// pure function of a canonical local view. Compile validates and tabulates
// it into a Rule.
type Def struct {
	// Name identifies the rule (registry key, CLI flag value).
	Name string
	// States is the number of per-particle payload states k; 1 (or 0)
	// declares a stateless rule with no payload.
	States int
	// Rotates declares payload-change moves: on top of the six translation
	// slots, each particle gets k−1 rotation slots, one per other state.
	Rotates bool
	// Guard reports whether a translation with pair mask m is structurally
	// admissible (chain M step 6 conditions (1) and (2) for compression).
	Guard func(m grid.Mask) bool
	// OccDelta is the occupancy term of a translation's ΔH, from the pair
	// mask alone (e′ − e for compression). Nil means 0.
	OccDelta func(m grid.Mask) int
	// PayDelta is the payload term of a translation's ΔH, from the
	// same-state submask of the pair mask. Nil means 0 (stateless rules).
	PayDelta func(same grid.Mask) int
	// RotPot is the local potential of a payload state at a site, from the
	// 6-bit mask of occupied neighbors sharing that state; a rotation from
	// state s to t has ΔH = RotPot(same_t) − RotPot(same_s). Required when
	// Rotates is set.
	RotPot func(same uint8) int
	// Energy recomputes H(σ) from scratch on a grid (payloads included for
	// payload rules). Engines maintain H incrementally from the deltas and
	// tests pin the two against each other; observables (the alignment
	// order parameter, e(σ) for compression) read it.
	Energy func(g *grid.Grid) int
	// Bias, when non-nil, makes the bias time-varying and site-dependent:
	// it returns the effective λ governing proposals made by the particle
	// currently at site, during the epoch containing step. Engines quantize
	// time into epochs of BiasEvery steps (they call BiasAt, which rounds
	// step down to its epoch start), so Bias only ever sees epoch-aligned
	// steps and the rejection-free engines can hold weights fixed within an
	// epoch. Bias must be a pure function, safe for concurrent use, and
	// every λ it returns must satisfy ValidateLambda — ladder construction
	// panics otherwise. Nil fixes the bias at the compile-time λ.
	Bias func(step uint64, site lattice.Point) float64
	// BiasEvery is the bias epoch length in chain steps; 0 with Bias set
	// selects DefaultBiasEvery. Ignored for fixed-λ rules.
	BiasEvery uint64
	// BiasProbe is the representative site at which snapshots report the
	// effective bias λ(t) (e.g. a food site for foraging).
	BiasProbe lattice.Point
}

// DefaultBiasEvery is the bias epoch length used when a Def declares a Bias
// schedule without choosing one.
const DefaultBiasEvery = 1024

// Rule is a compiled rule: every guard and Hamiltonian evaluation is table
// lookups. Rules are immutable after Compile and safe for concurrent use.
type Rule struct {
	name    string
	lambda  float64
	states  int
	rotates bool

	valid [256]bool
	occ   [256]int8 // OccDelta per pair mask
	pay   [256]int8 // PayDelta per same-state submask
	rot   [64]int8  // RotPot per same-state neighbor mask

	// ladder prices every proposal at λ.
	ladder *Ladder
	// keepsHoleFree: every move the guard admits is one chain M admits.
	keepsHoleFree bool

	energy func(g *grid.Grid) int

	// Bias schedule (nil for fixed-λ rules); see Def.Bias.
	bias      func(step uint64, site lattice.Point) float64
	biasEvery uint64
	biasProbe lattice.Point
}

// ValidateLambda reports whether λ can back a compiled power ladder: it must
// be a positive finite number whose λ^±deltaBound stays finite and nonzero.
// Without the ladder check, λ ≳ 1.6e30 silently overflows λ^deltaBound to
// +Inf (and tiny λ underflow to 0), yielding Inf/NaN Metropolis acceptance
// ratios and zero kMC slot weights.
func ValidateLambda(lambda float64) error {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return fmt.Errorf("rule: bias λ must be a positive finite number, got %v", lambda)
	}
	for _, k := range [2]float64{deltaBound, -deltaBound} {
		if p := math.Pow(lambda, k); p == 0 || math.IsInf(p, 0) {
			return fmt.Errorf("rule: bias λ=%v overflows the power ladder (λ^%g = %v)", lambda, k, p)
		}
	}
	return nil
}

// Compile validates a Def against bias λ and tabulates it.
func Compile(d Def, lambda float64) (*Rule, error) {
	if d.Name == "" {
		return nil, fmt.Errorf("rule: Def needs a name")
	}
	if err := ValidateLambda(lambda); err != nil {
		return nil, err
	}
	states := d.States
	if states < 1 {
		states = 1
	}
	if states > MaxStates {
		return nil, fmt.Errorf("rule: %d payload states exceeds the maximum %d", states, MaxStates)
	}
	if d.Guard == nil {
		return nil, fmt.Errorf("rule: Def %q needs a Guard", d.Name)
	}
	if d.Rotates && (states < 2 || d.RotPot == nil) {
		return nil, fmt.Errorf("rule: Def %q rotates but has no payload states or RotPot", d.Name)
	}
	if d.Energy == nil {
		return nil, fmt.Errorf("rule: Def %q needs an Energy function", d.Name)
	}
	r := &Rule{
		name:    d.Name,
		lambda:  lambda,
		states:  states,
		rotates: d.Rotates && states > 1,
		energy:  d.Energy,
	}
	if d.Bias != nil {
		r.bias = d.Bias
		r.biasEvery = d.BiasEvery
		if r.biasEvery == 0 {
			r.biasEvery = DefaultBiasEvery
		}
		r.biasProbe = d.BiasProbe
	}
	occMin, occMax, payMin, payMax := 0, 0, 0, 0
	r.keepsHoleFree = true
	for m := 0; m < 256; m++ {
		mk := grid.Mask(m)
		r.valid[m] = d.Guard(mk)
		if r.valid[m] && !move.Classify(mk).Valid() {
			r.keepsHoleFree = false
		}
		var dOcc, dPay int
		if d.OccDelta != nil {
			dOcc = d.OccDelta(mk)
		}
		if d.PayDelta != nil {
			dPay = d.PayDelta(mk)
		}
		if dOcc < -deltaBound || dOcc > deltaBound || dPay < -deltaBound || dPay > deltaBound {
			return nil, fmt.Errorf("rule: Def %q ΔH term out of ±%d at mask %08b (occ %d, pay %d)",
				d.Name, deltaBound, m, dOcc, dPay)
		}
		occMin, occMax = min(occMin, dOcc), max(occMax, dOcc)
		payMin, payMax = min(payMin, dPay), max(payMax, dPay)
		r.occ[m], r.pay[m] = int8(dOcc), int8(dPay)
	}
	if occMin+payMin < -deltaBound || occMax+payMax > deltaBound {
		return nil, fmt.Errorf("rule: Def %q move ΔH range [%d, %d] exceeds ±%d",
			d.Name, occMin+payMin, occMax+payMax, deltaBound)
	}
	if r.rotates {
		rotMin, rotMax := 0, 0
		for s := 0; s < 64; s++ {
			v := d.RotPot(uint8(s))
			rotMin, rotMax = min(rotMin, v), max(rotMax, v)
			r.rot[s] = int8(v)
		}
		if rotMax-rotMin > deltaBound {
			return nil, fmt.Errorf("rule: Def %q rotation ΔH range exceeds ±%d", d.Name, deltaBound)
		}
	}
	r.ladder = newLadder(r, lambda)
	return r, nil
}

// MustCompile is Compile but panics on error; for the built-in rule
// constructors whose Defs are correct by construction.
func MustCompile(d Def, lambda float64) *Rule {
	r, err := Compile(d, lambda)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the rule's name.
func (r *Rule) Name() string { return r.name }

// Lambda returns the bias parameter λ. For biased rules it is the nominal
// (compile-time) bias; the effective bias is BiasAt.
func (r *Rule) Lambda() float64 { return r.lambda }

// Biased reports whether the rule carries a time-varying/site-dependent
// bias schedule. Unbiased rules keep the fixed-λ fast paths untouched.
func (r *Rule) Biased() bool { return r.bias != nil }

// BiasEpoch returns the bias epoch length in steps (0 for fixed-λ rules).
// The effective bias is constant on [kE, (k+1)E); rejection-free engines
// refresh their cached weights only at epoch boundaries.
func (r *Rule) BiasEpoch() uint64 { return r.biasEvery }

// BiasAt returns the effective bias λ for a proposal by the particle at
// site during the epoch containing step. step is quantized to its epoch
// start before the schedule sees it, so any step within an epoch yields the
// same λ. For fixed-λ rules it returns Lambda.
func (r *Rule) BiasAt(step uint64, site lattice.Point) float64 {
	if r.bias == nil {
		return r.lambda
	}
	return r.bias(step-step%r.biasEvery, site)
}

// BiasProbe returns the representative site snapshots report λ(t) at.
func (r *Rule) BiasProbe() lattice.Point { return r.biasProbe }

// States returns the number of per-particle payload states k (1 for
// stateless rules).
func (r *Rule) States() int { return r.states }

// Stateless reports whether the rule carries no per-particle payload; the
// engines then skip payload storage and use the mask-only fast paths.
func (r *Rule) Stateless() bool { return r.states <= 1 }

// Rotates reports whether particles have payload-change (rotation) moves.
func (r *Rule) Rotates() bool { return r.rotates }

// Slots returns the number of proposal slots per particle: six translations
// plus, for rotating rules, one rotation per other payload state. The
// Metropolis chain proposes a uniform (particle, slot) pair each step; the
// kMC hold probability is W/(Slots·n).
func (r *Rule) Slots() int {
	if r.rotates {
		return lattice.NumDirs + r.states - 1
	}
	return lattice.NumDirs
}

// Plain reports whether the rule is stateless, fixed-λ and six-slot
// (compression and every CompressionVariant): a proposal is a direction,
// and the ladder's move table (Ladder.MoveTable), indexed by the pair
// mask, prices it alone. The engines' call-free loops run exactly these
// rules.
func (r *Rule) Plain() bool { return r.Stateless() && !r.Biased() && r.Slots() == lattice.NumDirs }

// Allowed reports whether a translation with pair mask m passes the guard.
func (r *Rule) Allowed(m grid.Mask) bool { return r.valid[m] }

// Ladder returns the ladder that prices every proposal at the rule's λ.
// Biased rules price at the effective λ instead (LadderCache).
func (r *Rule) Ladder() *Ladder { return r.ladder }

// KeepsHoleFree reports whether every translation the guard admits is one
// chain M admits (degree ≠ 5, and Property 1 or 2). Such moves never form a
// hole (Lemma 3.2), so once a configuration is hole-free it stays so and
// engines stop looking for holes. Ablated guards void the lemma.
func (r *Rule) KeepsHoleFree() bool { return r.keepsHoleFree }

// MoveDelta returns ΔH of a translation with pair mask m and same-state
// submask same (pass 0 for stateless rules).
func (r *Rule) MoveDelta(m, same grid.Mask) int { return int(r.occ[m]) + int(r.pay[same]) }

// RotDelta returns ΔH of a payload change at a site whose same-state
// neighbor masks are sameOld (current state) and sameNew (proposed state).
func (r *Rule) RotDelta(sameOld, sameNew uint8) int {
	return int(r.rot[sameNew&63]) - int(r.rot[sameOld&63])
}

// RotTarget maps a rotation slot index j ∈ [0, States−2] to the proposed
// payload state: the j-th state in ascending order, skipping the current
// state s. The mapping is a bijection between slots and the k−1 other
// states, so uniform slot choice proposes each target uniformly and the
// rotation kernel is symmetric.
func (r *Rule) RotTarget(s uint8, j int) uint8 {
	t := uint8(j)
	if t >= s {
		t++
	}
	return t
}

// Energy recomputes H(σ) from scratch for the grid's current (occupancy,
// payload) state.
func (r *Rule) Energy(g *grid.Grid) int { return r.energy(g) }

// EdgeEnergy is a Def.Energy helper that sums a per-edge term h(su, sv) over
// every induced edge of the grid, with su, sv the endpoint payloads. Each
// edge is visited once (directions 0–2 from each occupied cell).
func EdgeEnergy(g *grid.Grid, h func(su, sv uint8) int) int {
	total := 0
	g.Each(func(p lattice.Point) {
		sp := g.Payload(p)
		for d := lattice.Dir(0); d < lattice.NumDirs/2; d++ {
			if q := p.Neighbor(d); g.Has(q) {
				total += h(sp, g.Payload(q))
			}
		}
	})
	return total
}

// popcount8 counts the set bits of a mask.
func popcount8(m grid.Mask) int { return bits.OnesCount8(uint8(m)) }
