package numeric

import "math"

// Point2 is a point in the (edge, cloud) request plane.
type Point2 struct {
	E float64 // edge units
	C float64 // cloud units
}

// Add returns p + q.
func (p Point2) Add(q Point2) Point2 { return Point2{E: p.E + q.E, C: p.C + q.C} }

// Sub returns p - q.
func (p Point2) Sub(q Point2) Point2 { return Point2{E: p.E - q.E, C: p.C - q.C} }

// Scale returns s·p.
func (p Point2) Scale(s float64) Point2 { return Point2{E: s * p.E, C: s * p.C} }

// Norm returns the Euclidean norm of p.
func (p Point2) Norm() float64 { return math.Hypot(p.E, p.C) }

// RequestPolytope is a miner's feasible request region:
//
//	e ≥ 0, c ≥ 0, PriceE·e + PriceC·c ≤ Budget, e ≤ EdgeCap.
//
// EdgeCap may be +Inf (connected mode). Prices must be positive and the
// budget non-negative for the region to be well formed.
type RequestPolytope struct {
	PriceE  float64
	PriceC  float64
	Budget  float64
	EdgeCap float64 // upper bound on e; +Inf when uncapped
}

// Contains reports whether p satisfies every constraint within tolerance
// tol (pass 0 for exact checks).
func (k RequestPolytope) Contains(p Point2, tol float64) bool {
	if p.E < -tol || p.C < -tol {
		return false
	}
	if p.E > k.EdgeCap+tol {
		return false
	}
	return k.PriceE*p.E+k.PriceC*p.C <= k.Budget+tol*(k.PriceE+k.PriceC+1)
}

// maxE returns the largest feasible edge request.
func (k RequestPolytope) maxE() float64 {
	m := k.Budget / k.PriceE
	if k.EdgeCap < m {
		m = k.EdgeCap
	}
	if m < 0 {
		m = 0
	}
	return m
}

// Project returns the Euclidean projection of p onto the polytope.
//
// The region is the intersection of the box [0, EdgeCap] × [0, ∞) with the
// budget halfspace. If the box-clipped point satisfies the budget it is
// the projection; otherwise the projection lies on the budget segment and
// is found by projecting onto that segment directly.
func (k RequestPolytope) Project(p Point2) Point2 {
	clipped := Point2{
		E: Clamp(p.E, 0, k.EdgeCap),
		C: math.Max(p.C, 0),
	}
	if k.PriceE*clipped.E+k.PriceC*clipped.C <= k.Budget {
		return clipped
	}
	// Budget constraint is active: project p onto the line
	// PriceE·e + PriceC·c = Budget, then clamp e to the feasible segment.
	pe, pc := k.PriceE, k.PriceC
	t := (pe*p.E + pc*p.C - k.Budget) / (pe*pe + pc*pc)
	e := Clamp(p.E-pe*t, 0, k.maxE())
	c := (k.Budget - pe*e) / pc
	if c < 0 {
		c = 0
	}
	return Point2{E: e, C: c}
}
