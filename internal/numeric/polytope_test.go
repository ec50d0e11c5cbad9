package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func defaultPolytope() RequestPolytope {
	return RequestPolytope{PriceE: 2, PriceC: 1, Budget: 10, EdgeCap: 4}
}

func TestPolytopeContains(t *testing.T) {
	k := defaultPolytope()
	tests := []struct {
		name string
		p    Point2
		want bool
	}{
		{"origin", Point2{}, true},
		{"interior", Point2{E: 1, C: 1}, true},
		{"budget boundary", Point2{E: 2, C: 6}, true},
		{"over budget", Point2{E: 2, C: 7}, false},
		{"negative e", Point2{E: -0.1, C: 0}, false},
		{"negative c", Point2{E: 0, C: -0.1}, false},
		{"over edge cap", Point2{E: 4.5, C: 0}, false},
		{"edge cap boundary", Point2{E: 4, C: 2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := k.Contains(tt.p, 1e-12); got != tt.want {
				t.Errorf("Contains(%+v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestProjectFixedCases(t *testing.T) {
	k := defaultPolytope()
	tests := []struct {
		name string
		p    Point2
		want Point2
	}{
		{"already feasible", Point2{E: 1, C: 2}, Point2{E: 1, C: 2}},
		{"negative components", Point2{E: -3, C: -5}, Point2{E: 0, C: 0}},
		{"above edge cap only", Point2{E: 9, C: 1}, Point2{E: 4, C: 1}},
		{"pure cloud overspend", Point2{E: 0, C: 99}, Point2{E: 0, C: 10}},
		// Box-clipping (99,0) to the cap yields (4,0), which already
		// satisfies the budget 2·4 ≤ 10, so it is the projection.
		{"pure edge overspend hits cap", Point2{E: 99, C: 0}, Point2{E: 4, C: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := k.Project(tt.p)
			if math.Abs(got.E-tt.want.E) > 1e-9 || math.Abs(got.C-tt.want.C) > 1e-9 {
				t.Errorf("Project(%+v) = %+v, want %+v", tt.p, got, tt.want)
			}
		})
	}
}

func TestProjectPureEdgeOverspendNoCap(t *testing.T) {
	k := RequestPolytope{PriceE: 2, PriceC: 1, Budget: 10, EdgeCap: math.Inf(1)}
	got := k.Project(Point2{E: 99, C: 0})
	// The projection must land on the budget segment.
	if !k.Contains(got, 1e-9) {
		t.Fatalf("projection %+v infeasible", got)
	}
	if spend := k.PriceE*got.E + k.PriceC*got.C; math.Abs(spend-k.Budget) > 1e-9 {
		t.Errorf("projection spend = %g, want budget %g active", spend, k.Budget)
	}
}

// TestProjectProperties checks, over random polytopes and points, that the
// projection is feasible, idempotent, and no farther from the input than
// any feasible grid point (i.e. it is the nearest point of the region).
func TestProjectProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	property := func() bool {
		k := RequestPolytope{
			PriceE: 0.5 + 3*rng.Float64(),
			PriceC: 0.5 + 3*rng.Float64(),
			Budget: 1 + 20*rng.Float64(),
		}
		if rng.Intn(2) == 0 {
			k.EdgeCap = math.Inf(1)
		} else {
			k.EdgeCap = 0.5 + 5*rng.Float64()
		}
		p := Point2{E: -10 + 40*rng.Float64(), C: -10 + 40*rng.Float64()}
		proj := k.Project(p)
		if !k.Contains(proj, 1e-9) {
			t.Logf("infeasible projection %+v of %+v onto %+v", proj, p, k)
			return false
		}
		again := k.Project(proj)
		if again.Sub(proj).Norm() > 1e-9 {
			t.Logf("projection not idempotent: %+v vs %+v", proj, again)
			return false
		}
		// Compare against a feasible grid.
		best := proj.Sub(p).Norm()
		maxE := k.maxE()
		maxC := k.Budget / k.PriceC
		for i := 0; i <= 40; i++ {
			for j := 0; j <= 40; j++ {
				q := Point2{E: maxE * float64(i) / 40, C: maxC * float64(j) / 40}
				if !k.Contains(q, 1e-12) {
					continue
				}
				if q.Sub(p).Norm() < best-1e-6 {
					t.Logf("grid point %+v closer to %+v than projection %+v", q, p, proj)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPoint2Arithmetic(t *testing.T) {
	p := Point2{E: 3, C: 4}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %g, want 5", got)
	}
	if got := p.Add(Point2{E: 1, C: -1}); got != (Point2{E: 4, C: 3}) {
		t.Errorf("Add = %+v", got)
	}
	if got := p.Sub(Point2{E: 1, C: 1}); got != (Point2{E: 2, C: 3}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := p.Scale(2); got != (Point2{E: 6, C: 8}) {
		t.Errorf("Scale = %+v", got)
	}
}
