package numeric

import (
	"errors"
	"fmt"
	"math"
	"sort"

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
	// sqrtEps is √ε for float64, Brent's relative resolution of a
	// maximum: f is flat to rounding within that distance of it.
	sqrtEps = 1.4901161193847656e-08
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
// rescans the two cells around the best point at a finer step, and
// refines the best two local maxima found there with Brent's method. It
// tolerates non-unimodal f as long as the grid is fine enough to land in
// the basin of the global maximum. n must be at least 2.
func MaximizeGrid(f func(float64) float64, lo, hi float64, n int, tol float64) (x, fx float64) {
	// A nil pool takes the sequential path, which never produces an
	// error (a panic in f propagates to the caller unchanged), so the
	// discarded error is structurally nil here.
	x, fx, _ = MaximizeGridPool(f, lo, hi, n, tol, nil) //lint:allow errflow the sequential (nil-pool) path never produces an error, per the comment above
	return x, fx
}

// zoom is the number of sub-intervals each cell next to the best grid
// point is rescanned at.
const zoom = 4

// MaximizeGridPool is MaximizeGrid with the grid evaluations fanned out
// over the pool's workers (a nil or single-worker pool degenerates to the
// inline sequential loop). The argmax scans and the Brent refinements
// stay sequential with lowest-index tie-breaking, so for a pure f the
// result is bit-identical to MaximizeGrid at every worker count; f must
// be safe for concurrent calls when the pool is wider than one worker.
// The returned point is one f was evaluated at, and its value is never
// below the best grid value. NaN values count as -Inf.
//
// Two local maxima are refined, not one, because a leader's profit is
// often two smooth pieces joined at a kink (a miner type changing face),
// and the price a rival leader commits to is where those two maxima tie:
// only refined values rank them correctly there. The finer rescan is
// what shows the second one when both lie within a cell of each other.
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
	if tol <= 0 {
		tol = 1e-9*(hi-lo) + 1e-12
	}
	step := (hi - lo) / float64(n)
	// at(i) is the point i/zoom cells above lo; i = k·zoom is grid point
	// k. Rounding may carry the last one past hi.
	at := func(i int) float64 { return math.Min(lo+float64(i)/zoom*step, hi) }
	coarse := make([]float64, n+1)
	for k := range coarse {
		coarse[k] = at(k * zoom)
	}
	coarseVals, err := evalAll(f, coarse, pool)
	if err != nil {
		return 0, 0, err
	}
	best := 0
	for k, v := range coarseVals {
		if v > coarseVals[best] {
			best = k
		}
	}
	if math.IsInf(coarseVals[best], -1) {
		return lo, coarseVals[best], nil // nothing feasible to refine around
	}
	first, last := max(best-1, 0)*zoom, min(best+1, n)*zoom
	var fresh []float64
	for i := first; i <= last; i++ {
		if i%zoom != 0 {
			fresh = append(fresh, at(i))
		}
	}
	freshVals, err := evalAll(f, fresh, pool)
	if err != nil {
		return 0, 0, err
	}
	pts := make([]float64, 0, last-first+1)
	vals := make([]float64, 0, last-first+1)
	for i := first; i <= last; i++ {
		pts = append(pts, at(i))
		if i%zoom == 0 {
			vals = append(vals, coarseVals[i/zoom])
		} else {
			vals = append(vals, freshVals[0])
			freshVals = freshVals[1:]
		}
	}
	x, fx = pts[0], math.Inf(-1)
	for _, c := range topPeaks(vals, 2) {
		// Seed Brent with the peak and its neighbours, the better one as
		// the second-best point w, so that the first step can be the
		// parabola through the three scan values.
		l, r := max(c-1, 0), min(c+1, len(pts)-1)
		w, v := l, r
		if vals[r] > vals[l] {
			w, v = r, l
		}
		px, pv := maximizeBrent(f, pts[l], pts[r], tol,
			[3]float64{pts[c], pts[w], pts[v]}, [3]float64{vals[c], vals[w], vals[v]})
		if pv > fx {
			x, fx = px, pv
		}
	}
	return x, fx, nil
}

// topPeaks returns the indices of the (at most) k highest finite local
// maxima of vals, highest first and the lowest index first among ties. A
// plateau counts once, at its first point.
func topPeaks(vals []float64, k int) []int {
	var peaks []int
	for j, v := range vals {
		if !math.IsInf(v, -1) && (j == 0 || v > vals[j-1]) && (j+1 == len(vals) || v >= vals[j+1]) {
			peaks = append(peaks, j)
		}
	}
	sort.SliceStable(peaks, func(a, b int) bool { return vals[peaks[a]] > vals[peaks[b]] })
	return peaks[:min(len(peaks), k)]
}

// maximizeBrent is Brent's method for a maximum of f on [a, b] (Brent,
// "Algorithms for Minimization without Derivatives", ch. 5, with f
// negated): each step moves to the vertex of the parabola through the
// best three points seen when that vertex lies inside the bracket and the
// step is less than half the one before last, and is a golden-section
// step otherwise. A -Inf among the three values, which is what an
// infeasible price returns, also forces a golden step. pts holds the
// known points x (the best), w (the second best) and v, with their values
// in vals; x need not be interior. Ties keep the earlier point.
func maximizeBrent(f func(float64) float64, a, b, tol float64, pts, vals [3]float64) (float64, float64) {
	x, w, v := pts[0], pts[1], pts[2]
	fx, fw, fv := vals[0], vals[1], vals[2]
	// e is the step before last; starting it at the bracket width lets
	// the first step be parabolic.
	e, d := b-a, 0.0
	for it := 0; it < 100; it++ {
		xm := (a + b) / 2
		tol1 := sqrtEps*math.Abs(x) + tol/3
		tol2 := 2 * tol1
		if math.Abs(x-xm) <= tol2-(b-a)/2 {
			break
		}
		golden := true
		if math.Abs(e) > tol1 && !math.IsInf(fw, -1) && !math.IsInf(fv, -1) {
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			if math.Abs(p) < math.Abs(q*e/2) && p > q*(a-x) && p < q*(b-x) {
				e, d = d, p/q
				golden = false
				if u := x + d; u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, xm-x)
				}
			}
		}
		if golden {
			if x >= xm {
				e = a - x
			} else {
				e = b - x
			}
			d = invPhi2 * e
		}
		u := x + d
		if math.Abs(d) < tol1 {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if math.IsNaN(fu) {
			fu = math.Inf(-1)
		}
		if fu > fx {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
			continue
		}
		if u < x {
			a = u
		} else {
			b = u
		}
		//lint:allow floateq Brent's bookkeeping compares stored points, not computed values
		if fu >= fw || w == x {
			v, fv, w, fw = w, fw, u, fu
		} else if fu >= fv || v == x || v == w { //lint:allow floateq see above
			v, fv = u, fu
		}
	}
	return x, fx
}

// evalAll evaluates f at every point of xs, fanned out over the pool
// when it has more than one worker, with NaN read as -Inf.
func evalAll(f func(float64) float64, xs []float64, pool *parallel.Pool) ([]float64, error) {
	vals := make([]float64, len(xs))
	if pool.Sequential() {
		for i, x := range xs {
			vals[i] = f(x)
		}
	} else {
		par, err := parallel.Map(pool, xs, func(_ int, x float64) (float64, error) {
			return f(x), nil
		})
		if err != nil {
			return nil, fmt.Errorf("numeric: grid evaluation on [%g, %g]: %w", xs[0], xs[len(xs)-1], err)
		}
		vals = par
	}
	for i, v := range vals {
		if math.IsNaN(v) {
			vals[i] = math.Inf(-1)
		}
	}
	return vals, nil
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
