package numeric

import (
	"errors"
	"fmt"
	"math"

	"minegame/internal/parallel"
)

// ErrNoBracket is returned by root finders when the supplied interval does
// not bracket a sign change.
var ErrNoBracket = errors.New("numeric: interval does not bracket a root")

const (
	// invPhi is 1/φ, the golden ratio section used by MaximizeGolden.
	invPhi = 0.6180339887498949
	// invPhi2 is 1/φ².
	invPhi2 = 0.3819660112501051
)

// MaximizeGolden finds the maximizer of f on [lo, hi] assuming f is
// unimodal there, using golden-section search. It returns the argmax and
// the maximum value. tol is the absolute tolerance on the argument; a
// non-positive tol defaults to 1e-9 times the interval width plus 1e-12.
func MaximizeGolden(f func(float64) float64, lo, hi, tol float64) (x, fx float64) {
	if hi < lo {
		lo, hi = hi, lo
	}
	if tol <= 0 {
		tol = 1e-9*(hi-lo) + 1e-12
	}
	a, b := lo, hi
	c := a + invPhi2*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc > fd {
			b, d, fd = d, c, fc
			c = a + invPhi2*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = (a + b) / 2
	return x, f(x)
}

// MaximizeGrid evaluates f on a uniform grid of n+1 points over [lo, hi],
// then refines around the best grid point with golden-section search.
// It tolerates non-unimodal f as long as the grid is fine enough to land
// in the basin of the global maximum. n must be at least 2.
func MaximizeGrid(f func(float64) float64, lo, hi float64, n int, tol float64) (x, fx float64) {
	// A nil pool takes the sequential path, which never produces an
	// error (a panic in f propagates to the caller unchanged), so the
	// discarded error is structurally nil here.
	x, fx, _ = MaximizeGridPool(f, lo, hi, n, tol, nil) //lint:allow errflow the sequential (nil-pool) path never produces an error, per the comment above
	return x, fx
}

// MaximizeGridPool is MaximizeGrid with the bulk grid evaluation fanned
// out over the pool's workers (a nil or single-worker pool degenerates to
// the inline sequential loop). The argmax scan and the golden refinement
// stay sequential with lowest-index tie-breaking, so for a pure f the
// result is bit-identical to MaximizeGrid at every worker count; f must
// be safe for concurrent calls when the pool is wider than one worker.
//
// The evaluator itself cannot fail — infeasible points are encoded as
// -Inf profits by the callers' conventions — so the only possible error
// is a panic inside f recovered by the worker pool, reported with the
// offending grid point's recovered value and stack. On the sequential
// path no goroutine sits between caller and f, so a panic there
// propagates unchanged instead.
func MaximizeGridPool(f func(float64) float64, lo, hi float64, n int, tol float64, pool *parallel.Pool) (x, fx float64, err error) {
	if hi < lo {
		lo, hi = hi, lo
	}
	if n < 2 {
		n = 2
	}
	step := (hi - lo) / float64(n)
	bestI, bestV, err := gridArgmax(f, lo, step, n, pool)
	if err != nil {
		return 0, 0, err
	}
	a := lo + float64(max(bestI-1, 0))*step
	b := lo + float64(min(bestI+1, n))*step
	x, fx = MaximizeGolden(f, a, b, tol)
	if bestV > fx {
		// Golden refinement can lose to the raw grid point when f is
		// flat or noisy; keep the better of the two.
		return lo + float64(bestI)*step, bestV, nil
	}
	return x, fx, nil
}

// gridArgmax evaluates f at lo + i·step for i in [0, n] (fanned out over
// the pool when it has more than one worker) and returns the
// lowest-index argmax with its value. The scan is sequential, so the
// result is worker-count independent for pure f.
func gridArgmax(f func(float64) float64, lo, step float64, n int, pool *parallel.Pool) (int, float64, error) {
	vals := make([]float64, n+1)
	if pool.Sequential() {
		for i := 0; i <= n; i++ {
			vals[i] = f(lo + float64(i)*step)
		}
	} else {
		par, perr := parallel.Map(pool, vals, func(i int, _ float64) (float64, error) {
			return f(lo + float64(i)*step), nil
		})
		if perr != nil {
			return 0, 0, fmt.Errorf("numeric: grid evaluation on [%g, %g]: %w", lo, lo+float64(n)*step, perr)
		}
		vals = par
	}
	bestI, bestV := 0, math.Inf(-1)
	for i, v := range vals {
		if v > bestV {
			bestI, bestV = i, v
		}
	}
	return bestI, bestV, nil
}

// Bisect finds a root of f in [lo, hi] by bisection. f(lo) and f(hi) must
// have opposite signs (or one of them must be zero). tol is the absolute
// tolerance on the argument.
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if math.Signbit(flo) == math.Signbit(fhi) {
		return 0, fmt.Errorf("bisect on [%g, %g]: f=%g and %g: %w", lo, hi, flo, fhi, ErrNoBracket)
	}
	if tol <= 0 {
		tol = 1e-12 * (math.Abs(lo) + math.Abs(hi) + 1)
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if math.Signbit(fm) == math.Signbit(flo) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// BrentRoot finds a root of f in the bracketing interval [lo, hi] using
// Brent's method (inverse quadratic interpolation with bisection
// fallback). It converges superlinearly for smooth f and never leaves the
// bracket.
func BrentRoot(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	a, b := lo, hi
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("brent on [%g, %g]: f=%g and %g: %w", lo, hi, fa, fb, ErrNoBracket)
	}
	if tol <= 0 {
		tol = 1e-13
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	var d float64
	mflag := true
	for i := 0; i < 200 && fb != 0 && math.Abs(b-a) > tol; i++ {
		var s float64
		// Exact degeneracy guard: inverse quadratic interpolation
		// divides by (fa-fc)(fb-fc); only exact coincidence makes that
		// division blow up, and the secant branch handles it.
		if fa != fc && fb != fc { //lint:allow floateq exact IQI degeneracy guard against division by zero
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo34, hi34 := (3*a+b)/4, b
		if lo34 > hi34 {
			lo34, hi34 = hi34, lo34
		}
		useBisect := s < lo34 || s > hi34 ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if useBisect {
			s = (a + b) / 2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if math.Signbit(fa) != math.Signbit(fs) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, nil
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
