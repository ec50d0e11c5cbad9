package numeric

// Edge-case table for the scalar optimizers: degenerate brackets, flat
// and -Inf objectives, and clamped grid sizes. These are the regimes the
// leader-stage price search hits when a demand oracle marks every probe
// infeasible or a bracket collapses to a point.

import (
	"math"
	"testing"
)

func TestMaximizeGoldenEdgeCases(t *testing.T) {
	neg := func(x float64) float64 { return -(x - 2) * (x - 2) }
	t.Run("zero-width bracket", func(t *testing.T) {
		x, fx := MaximizeGolden(neg, 3, 3, 0)
		if x != 3 || fx != neg(3) {
			t.Errorf("got (%g, %g), want the single point (3, %g)", x, fx, neg(3))
		}
	})
	t.Run("reversed bracket", func(t *testing.T) {
		x, _ := MaximizeGolden(neg, 5, 0, 1e-9)
		if math.Abs(x-2) > 1e-6 {
			t.Errorf("argmax = %g, want 2 (bracket given backwards)", x)
		}
	})
	t.Run("flat objective", func(t *testing.T) {
		x, fx := MaximizeGolden(func(float64) float64 { return 7 }, 0, 1, 1e-9)
		if fx != 7 || x < 0 || x > 1 {
			t.Errorf("flat objective: got (%g, %g)", x, fx)
		}
	})
}

func TestMaximizeGridEdgeCases(t *testing.T) {
	t.Run("n below minimum clamps to 2", func(t *testing.T) {
		x, fx := MaximizeGrid(func(x float64) float64 { return -x * x }, -1, 1, 0, 1e-9)
		if math.Abs(x) > 1e-6 || math.Abs(fx) > 1e-9 {
			t.Errorf("got (%g, %g), want the origin", x, fx)
		}
	})
	t.Run("zero-width interval", func(t *testing.T) {
		x, fx := MaximizeGrid(func(x float64) float64 { return x }, 4, 4, 8, 1e-9)
		if x != 4 || fx != 4 {
			t.Errorf("got (%g, %g), want (4, 4)", x, fx)
		}
	})
	t.Run("all minus infinity", func(t *testing.T) {
		// The leaders encode infeasible prices as -Inf profit; an entirely
		// infeasible bracket must come back -Inf, not NaN or a panic.
		_, fx := MaximizeGrid(func(float64) float64 { return math.Inf(-1) }, 0, 1, 10, 1e-9)
		if !math.IsInf(fx, -1) {
			t.Errorf("value = %g, want -Inf", fx)
		}
	})
	t.Run("flat objective ties break to the low end", func(t *testing.T) {
		x, _ := MaximizeGrid(func(float64) float64 { return 1 }, 0, 10, 5, 1e-9)
		if x != 0 {
			t.Errorf("argmax = %g, want the low end 0", x)
		}
	})
}

func TestBisectEdgeCases(t *testing.T) {
	lin := func(x float64) float64 { return x - 1 }
	t.Run("root at lower endpoint", func(t *testing.T) {
		x, err := Bisect(lin, 1, 5, 1e-12)
		if err != nil || x != 1 {
			t.Errorf("got (%g, %v), want the endpoint root", x, err)
		}
	})
	t.Run("root at upper endpoint", func(t *testing.T) {
		x, err := Bisect(lin, -3, 1, 1e-12)
		if err != nil || x != 1 {
			t.Errorf("got (%g, %v), want the endpoint root", x, err)
		}
	})
	t.Run("no sign change", func(t *testing.T) {
		if _, err := Bisect(lin, 2, 5, 1e-12); err == nil {
			t.Error("want ErrNoBracket")
		}
	})
	t.Run("non-positive tolerance defaults", func(t *testing.T) {
		x, err := Bisect(lin, 0, 2, -1)
		if err != nil || math.Abs(x-1) > 1e-9 {
			t.Errorf("got (%g, %v)", x, err)
		}
	})
}

func TestBrentRootEdgeCases(t *testing.T) {
	t.Run("endpoint roots", func(t *testing.T) {
		f := func(x float64) float64 { return x }
		if x, err := BrentRoot(f, 0, 4, 1e-12); err != nil || x != 0 {
			t.Errorf("lower endpoint: (%g, %v)", x, err)
		}
		if x, err := BrentRoot(f, -4, 0, 1e-12); err != nil || x != 0 {
			t.Errorf("upper endpoint: (%g, %v)", x, err)
		}
	})
	t.Run("no sign change", func(t *testing.T) {
		if _, err := BrentRoot(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12); err == nil {
			t.Error("want ErrNoBracket")
		}
	})
	t.Run("steep nonlinearity", func(t *testing.T) {
		f := func(x float64) float64 { return math.Expm1(10 * (x - 0.7)) }
		x, err := BrentRoot(f, 0, 1, 1e-13)
		if err != nil || math.Abs(x-0.7) > 1e-9 {
			t.Errorf("got (%g, %v), want 0.7", x, err)
		}
	})
}
