package miner

// Totals-based environments: the O(N) alternative to re-summing a
// Profile for every player. A Totals value carries the profile-wide
// aggregates (E, C); the environment any one miner faces is then
// env_i = totals − own_i, an O(1) subtraction. The iterating solvers in
// internal/game keep their running totals current across a Gauss–Seidel
// sweep by delta updates and re-sum exactly at every sweep boundary, so
// floating-point drift cannot accumulate beyond one sweep's worth of
// rounding; see DESIGN.md §9 for the invariants.

import "minegame/internal/numeric"

// Totals is the aggregate demand of an entire profile: E = Σ e_i and
// C = Σ c_i over ALL miners (the paper's E and C).
type Totals struct {
	Edge  float64 // E, total edge demand
	Cloud float64 // C, total cloud demand
}

// Aggregate sums the profile into its Totals in one O(N) pass.
func (p Profile) Aggregate() Totals {
	var t Totals
	for _, r := range p {
		t.Edge += r.E
		t.Cloud += r.C
	}
	return t
}

// Env returns the environment of a miner whose own request is own,
// assuming own is included in the totals: E_{-i} = E − e_i and
// C_{-i} = C − c_i. Tiny negative residues from floating-point
// cancellation are clamped to zero so downstream guards (which treat
// aggregates ≤ tiny as empty) behave exactly as with fresh summation.
func (t Totals) Env(own numeric.Point2) Env {
	e := t.Edge - own.E
	c := t.Cloud - own.C
	if e < 0 {
		e = 0
	}
	if c < 0 {
		c = 0
	}
	return Env{EdgeOthers: e, CloudOthers: c}
}
