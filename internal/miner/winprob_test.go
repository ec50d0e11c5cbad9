package miner

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"minegame/internal/numeric"
)

func testParams() Params {
	return Params{Reward: 1000, Beta: 0.2, H: 0.7, PriceE: 8, PriceC: 4}
}

func randomProfile(rng *rand.Rand, n int) Profile {
	p := make(Profile, n)
	for i := range p {
		p[i] = numeric.Point2{E: rng.Float64() * 10, C: rng.Float64() * 10}
	}
	return p
}

// TestTheorem1 verifies Σ_i W_i = 1 (the paper's Theorem 1) over random
// request profiles.
func TestTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	property := func() bool {
		n := 2 + rng.Intn(8)
		beta := rng.Float64() * 0.9
		prof := randomProfile(rng, n)
		total := numeric.Sum(WinProbsFull(beta, prof))
		if math.Abs(total-1) > 1e-9 {
			t.Logf("ΣW = %.12f for beta=%g profile=%v", total, beta, prof)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConnectedIdentity verifies Eq. 9's closed combination equals
// h·W^h + (1−h)·W^{1−h} built from Eqs. 6–7.
func TestConnectedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(6)
		beta := rng.Float64() * 0.9
		h := rng.Float64()
		prof := randomProfile(rng, n)
		for i, own := range prof {
			env := prof.Env(i)
			combined := h*WinProbFull(beta, own, env) + (1-h)*WinProbTransferred(beta, own, env)
			direct := WinProbConnected(beta, h, own, env)
			if math.Abs(combined-direct) > 1e-9 {
				t.Fatalf("identity violated: combined=%.12f direct=%.12f (beta=%g h=%g)", combined, direct, beta, h)
			}
		}
	}
}

func TestWinProbDegenerateProfiles(t *testing.T) {
	env := Env{}
	zero := numeric.Point2{}
	if WinProbFull(0.2, zero, env) != 0 {
		t.Error("empty network must give W = 0")
	}
	if WinProbConnected(0.2, 0.7, zero, env) != 0 {
		t.Error("empty network must give connected W = 0")
	}
	if WinProbTransferred(0.2, zero, env) != 0 || WinProbRejected(0.2, zero, env) != 0 {
		t.Error("degraded forms must give 0 on empty network")
	}
	// Single all-cloud miner: no edge power anywhere.
	own := numeric.Point2{C: 5}
	if got := WinProbFull(0.2, own, env); math.Abs(got-1) > 1e-12 {
		t.Errorf("lone cloud miner W = %g, want 1 (no fork rivals)", got)
	}
}

func TestWinProbRejected(t *testing.T) {
	// Miner 0's edge request rejected: only its cloud part mines, and its
	// edge units leave the network entirely.
	own := numeric.Point2{E: 3, C: 2}
	env := Env{EdgeOthers: 5, CloudOthers: 5}
	got := WinProbRejected(0.25, own, env)
	want := (1 - 0.25) * 2.0 / (10 + 2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("W rejected = %g, want %g", got, want)
	}
}

func TestWinProbFullKnownValue(t *testing.T) {
	// Hand-computed: e=[2,1], c=[1,3]; E=3, C=4, S=7, β=0.5.
	prof := Profile{{E: 2, C: 1}, {E: 1, C: 3}}
	ws := WinProbsFull(0.5, prof)
	w0 := 3.0/7 + 0.5*(2*4-1*3)/(3.0*7)
	w1 := 4.0/7 + 0.5*(1*4-3*3)/(3.0*7)
	if math.Abs(ws[0]-w0) > 1e-12 || math.Abs(ws[1]-w1) > 1e-12 {
		t.Errorf("W = %v, want [%g, %g]", ws, w0, w1)
	}
	if math.Abs(ws[0]+ws[1]-1) > 1e-12 {
		t.Errorf("ΣW = %g", ws[0]+ws[1])
	}
}

func TestProfileHelpers(t *testing.T) {
	prof := Profile{{E: 1, C: 2}, {E: 3, C: 4}, {E: 5, C: 6}}
	e, c, s := prof.Totals()
	if e != 9 || c != 12 || s != 21 {
		t.Errorf("totals = %g, %g, %g", e, c, s)
	}
	env := prof.Env(1)
	if env.EdgeOthers != 6 || env.CloudOthers != 8 || env.SumOthers() != 14 {
		t.Errorf("env = %+v", env)
	}
	clone := prof.Clone()
	clone[0].E = 99
	if prof[0].E != 1 {
		t.Error("Clone must not share backing storage")
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
		ok     bool
	}{
		{"valid", func(*Params) {}, true},
		{"zero reward", func(p *Params) { p.Reward = 0 }, false},
		{"beta = 1", func(p *Params) { p.Beta = 1 }, false},
		{"negative beta", func(p *Params) { p.Beta = -0.1 }, false},
		{"h > 1", func(p *Params) { p.H = 1.1 }, false},
		{"zero priceE", func(p *Params) { p.PriceE = 0 }, false},
		{"zero priceC", func(p *Params) { p.PriceC = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := testParams()
			tt.mutate(&p)
			if err := p.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestParamsSpend(t *testing.T) {
	p := testParams()
	if got := p.Spend(numeric.Point2{E: 2, C: 3}); got != 8*2+4*3 {
		t.Errorf("Spend = %g, want 28", got)
	}
}

// TestStandaloneIsConnectedAtH1 pins the identity behind the single
// best-response kernel: with c = s − e and C = S − E, Eq. 6's fork term
// β(e·C − c·E)/(E·S) equals β·e/E − β·s/S, so W_i of Eq. 6 is Eq. 9 at
// h = 1 whenever E exceeds tiny. At E ≤ tiny the two conventions differ:
// Eq. 6 gives the whole share s/S, Eq. 9 gives (1−β)s/S.
func TestStandaloneIsConnectedAtH1(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20000; trial++ {
		beta := rng.Float64() * 0.99
		own := numeric.Point2{E: rng.Float64() * 10, C: rng.Float64() * 10}
		env := Env{EdgeOthers: rng.Float64() * 50, CloudOthers: rng.Float64() * 50}
		if env.EdgeOthers+own.E <= tiny {
			continue
		}
		full, conn := WinProbFull(beta, own, env), WinProbConnected(beta, 1, own, env)
		if math.Abs(full-conn) > 1e-15*math.Max(1, math.Abs(full)) {
			t.Fatalf("W_full = %.17g, W_connected(h=1) = %.17g (beta %g own %+v env %+v)", full, conn, beta, own, env)
		}
	}
	own, env := numeric.Point2{C: 5}, Env{CloudOthers: 15}
	if got := WinProbFull(0.2, own, env); got != 0.25 {
		t.Errorf("W_full at E = 0 is %g, want the whole share s/S = 0.25", got)
	}
	if got := WinProbConnected(0.2, 1, own, env); math.Abs(got-0.2) > 1e-15 {
		t.Errorf("W_connected(h=1) at E = 0 is %g, want (1−β)s/S = 0.2", got)
	}
}

// TestTopoBetaDirection: at a symmetric profile, e_i/E equals the total
// share (e_i+c_i)/S, so raising miner i's fork rate moves W_i by
// Δβ·(h−1)·share — strictly down whenever h < 1.
func TestTopoBetaDirection(t *testing.T) {
	r := randomProfile(rand.New(rand.NewSource(7)), 1)[0]
	env := Env{EdgeOthers: 3 * r.E, CloudOthers: 3 * r.C}
	low := WinProbConnected(0.1, 0.7, r, env)
	high := WinProbConnected(0.5, 0.7, r, env)
	if high >= low {
		t.Errorf("raising beta at a symmetric profile with h<1 must lower W: %g >= %g", high, low)
	}
}
