package numeric

// Properties of the leader-stage maximizer MaximizeGridPool: the scan,
// the rescan of the best cells and the Brent refinement of the best two
// local maxima there.

import (
	"math"
	"testing"

	"minegame/internal/parallel"
)

// counted wraps f with an evaluation counter.
func counted(f func(float64) float64) (func(float64) float64, *int) {
	n := 0
	return func(x float64) float64 { n++; return f(x) }, &n
}

// scanMax is the best value of f over MaximizeGridPool's first scan: n
// intervals of [lo, hi] (n at least 2), NaN read as -Inf.
func scanMax(f func(float64) float64, lo, hi float64, n int) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	n = max(n, 2)
	best := math.Inf(-1)
	for k := 0; k <= n; k++ {
		if v := f(math.Min(lo+float64(k)*((hi-lo)/float64(n)), hi)); v > best {
			best = v
		}
	}
	return best
}

func TestMaximizeGridPoolSmoothIsSuperlinear(t *testing.T) {
	// A smooth concave peak off the grid: the parabola steps land on it
	// in a handful of evaluations after the 17 + 6 scan points.
	f, evals := counted(func(x float64) float64 { return -math.Exp(x-3.3) + (x - 3.3) + 5 })
	x, fx := MaximizeGrid(f, 0, 10, 16, 1e-8)
	if math.Abs(x-3.3) > 1e-6 || math.Abs(fx-4) > 1e-12 {
		t.Errorf("got (%.10g, %.15g), want (3.3, 4)", x, fx)
	}
	if *evals > 17+6+12 {
		t.Errorf("%d evaluations, want at most %d", *evals, 17+6+12)
	}
}

func TestMaximizeGridPoolEnds(t *testing.T) {
	// A monotone objective peaks at an end of the bracket, which is a
	// scan point: the refinement keeps it exactly.
	if x, fx := MaximizeGrid(func(x float64) float64 { return x }, 2, 7, 16, 1e-9); x != 7 || fx != 7 {
		t.Errorf("increasing: got (%g, %g), want (7, 7)", x, fx)
	}
	if x, fx := MaximizeGrid(func(x float64) float64 { return -x }, 2, 7, 16, 1e-9); x != 2 || fx != -2 {
		t.Errorf("decreasing: got (%g, %g), want (2, -2)", x, fx)
	}
}

func TestMaximizeGridPoolMinusInfPlateau(t *testing.T) {
	// Infeasible prices return -Inf; the peak sits right at the edge of
	// the feasible region, so the parabola through the scan points would
	// use a -Inf value unless the step falls back to golden section.
	f := func(x float64) float64 {
		if x < 4.1 {
			return math.Inf(-1)
		}
		return -(x - 4.2) * (x - 4.2)
	}
	x, fx := MaximizeGrid(f, 0, 16, 16, 1e-10)
	if math.IsNaN(x) || math.IsNaN(fx) || math.Abs(x-4.2) > 1e-6 {
		t.Errorf("got (%g, %g), want the peak at 4.2", x, fx)
	}
	if fx != f(x) {
		t.Errorf("value %g is not f at the returned point (%g)", fx, f(x))
	}
}

func TestMaximizeGridPoolNaN(t *testing.T) {
	// NaN values count as -Inf: never returned, never chosen.
	f := func(x float64) float64 {
		if x > 6 {
			return math.NaN()
		}
		return x
	}
	x, fx := MaximizeGrid(f, 0, 10, 16, 1e-9)
	if math.IsNaN(x) || math.IsNaN(fx) || x > 6 || math.Abs(fx-6) > 1e-6 {
		t.Errorf("got (%g, %g), want the last non-NaN point near 6", x, fx)
	}
	if _, fx := MaximizeGrid(func(float64) float64 { return math.NaN() }, 0, 1, 4, 1e-9); !math.IsInf(fx, -1) {
		t.Errorf("all-NaN objective: value %g, want -Inf", fx)
	}
}

func TestMaximizeGridPoolHiddenSecondPeak(t *testing.T) {
	// Two concave pieces joined at a kink, the shape of a CSP profit
	// whose miners change face. The broad peak at 10.875 is a scan point;
	// the higher, sharp one at 8 lies inside the next cell, where the
	// rescan samples it 0.41 off, below the broad peak's sample. Only
	// refining both local maxima of the rescan finds the higher.
	f := func(x float64) float64 {
		return math.Max(541.8-10*(x-8)*(x-8), 541.0-1.5*(x-10.875)*(x-10.875))
	}
	x, fx := MaximizeGrid(f, 1, 80, 16, 1e-7)
	if math.Abs(x-8) > 1e-5 || math.Abs(fx-541.8) > 1e-8 {
		t.Errorf("got (%g, %g), want the higher peak (8, 541.8)", x, fx)
	}
}

// FuzzMaximizeGridPool: on any bracket and any objective built from a
// smooth part, a kink, a -Inf region and a NaN region, the maximizer
// returns a non-NaN point inside the bracket whose value is f there, is
// never below the best scan point, and is bit-identical at pool widths 1
// and 4.
func FuzzMaximizeGridPool(f *testing.F) {
	f.Add(0.0, 10.0, uint8(16), 3.3, 1.0, 0.0, 7.0, -1.0, 11.0)
	f.Add(1.0, 80.0, uint8(16), 7.28, 3.0, 10.49, 1.5, 0.0, 90.0)
	f.Add(-5.0, 5.0, uint8(2), 0.0, 0.0, 0.0, 0.0, 0.5, 0.5)
	f.Add(3.0, 3.0, uint8(0), 3.0, 1.0, 3.0, 1.0, 2.0, 4.0)
	f.Fuzz(func(t *testing.T, lo, hi float64, n uint8, c1, a1, c2, a2, infBelow, nanAbove float64) {
		for _, v := range []float64{lo, hi, c1, a1, c2, a2, infBelow, nanAbove} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		obj := func(x float64) float64 {
			switch {
			case x < infBelow:
				return math.Inf(-1)
			case x > nanAbove:
				return math.NaN()
			}
			return math.Max(-a1*(x-c1)*(x-c1), 1-a2*(x-c2)*(x-c2)) + 0.1*math.Sin(x)
		}
		x, fx := MaximizeGrid(obj, lo, hi, int(n%64), 1e-9)
		if math.IsNaN(x) || math.IsNaN(fx) {
			t.Fatalf("NaN result (%v, %v)", x, fx)
		}
		if x < math.Min(lo, hi) || x > math.Max(lo, hi) {
			t.Fatalf("x = %v outside [%v, %v]", x, lo, hi)
		}
		if fx < scanMax(obj, lo, hi, int(n%64)) {
			t.Fatalf("value %v below the best scan point %v", fx, scanMax(obj, lo, hi, int(n%64)))
		}
		if v := obj(x); fx != v && !(math.IsInf(fx, -1) && (math.IsNaN(v) || math.IsInf(v, -1))) {
			t.Fatalf("value %v is not f(%v) = %v", fx, x, v)
		}
		px, pv, err := MaximizeGridPool(obj, lo, hi, int(n%64), 1e-9, parallel.New(4))
		if err != nil {
			t.Fatal(err)
		}
		if px != x || pv != fx {
			t.Fatalf("width 4 gave (%v, %v), width 1 (%v, %v)", px, pv, x, fx)
		}
	})
}
