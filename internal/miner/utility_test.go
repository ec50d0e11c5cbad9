package miner

import (
	"math"
	"math/rand"
	"testing"

	"minegame/internal/numeric"
)

// TestGradientsMatchFiniteDifferences validates the analytic gradients of
// both utility forms against central finite differences at random
// interior points.
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 400; trial++ {
		p := Params{
			Reward: 100 + 900*rng.Float64(),
			Beta:   rng.Float64() * 0.8,
			H:      rng.Float64(),
			PriceE: 1 + 9*rng.Float64(),
			PriceC: 1 + 9*rng.Float64(),
		}
		env := Env{EdgeOthers: 0.5 + 10*rng.Float64(), CloudOthers: 0.5 + 10*rng.Float64()}
		own := numeric.Point2{E: 0.5 + 5*rng.Float64(), C: 0.5 + 5*rng.Float64()}

		fc := func(x numeric.Point2) float64 { return UtilityConnected(p, x, env) }
		gotC := GradConnected(p, own, env)
		wantC := grad2FiniteDiff(fc, 1e-5)(own)
		if !closePt(gotC, wantC, 1e-3) {
			t.Fatalf("connected gradient mismatch at %+v: analytic %+v, fd %+v (params %+v env %+v)", own, gotC, wantC, p, env)
		}

		fs := func(x numeric.Point2) float64 { return UtilityStandalone(p, x, env) }
		gotS := gradStandalone(p, own, env)
		wantS := grad2FiniteDiff(fs, 1e-5)(own)
		if !closePt(gotS, wantS, 1e-3) {
			t.Fatalf("standalone gradient mismatch at %+v: analytic %+v, fd %+v (params %+v env %+v)", own, gotS, wantS, p, env)
		}
	}
}

func closePt(a, b numeric.Point2, tol float64) bool {
	return numeric.AlmostEqual(a.E, b.E, tol) && numeric.AlmostEqual(a.C, b.C, tol)
}

func TestUtilityKnownValue(t *testing.T) {
	p := testParams()
	own := numeric.Point2{E: 2, C: 4}
	env := Env{EdgeOthers: 6, CloudOthers: 8}
	// E=8, C=12, S=20.
	wFull := 6.0/20 + 0.2*(2*12-4*8)/(8.0*20)
	wantStandalone := 1000*wFull - (8*2 + 4*4)
	if got := UtilityStandalone(p, own, env); math.Abs(got-wantStandalone) > 1e-9 {
		t.Errorf("standalone utility = %g, want %g", got, wantStandalone)
	}
	wConn := (1-0.2)*6.0/20 + 0.2*0.7*2.0/8
	wantConnected := 1000*wConn - 32
	if got := UtilityConnected(p, own, env); math.Abs(got-wantConnected) > 1e-9 {
		t.Errorf("connected utility = %g, want %g", got, wantConnected)
	}
}

// TestConnectedUtilityConcaveInOwnStrategy spot-checks midpoint concavity
// of the connected utility in the miner's own request, the property the
// uniqueness proof (Theorem 2) relies on.
func TestConnectedUtilityConcaveInOwnStrategy(t *testing.T) {
	p := testParams()
	env := Env{EdgeOthers: 5, CloudOthers: 12}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		a := numeric.Point2{E: rng.Float64() * 20, C: rng.Float64() * 20}
		b := numeric.Point2{E: rng.Float64() * 20, C: rng.Float64() * 20}
		mid := a.Add(b).Scale(0.5)
		ua := UtilityConnected(p, a, env)
		ub := UtilityConnected(p, b, env)
		um := UtilityConnected(p, mid, env)
		if um < (ua+ub)/2-1e-9 {
			t.Fatalf("concavity violated at %+v / %+v: mid %g < avg %g", a, b, um, (ua+ub)/2)
		}
	}
}
