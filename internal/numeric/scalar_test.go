package numeric

import (
	"errors"
	"math"
	"strings"
	"testing"

	"minegame/internal/parallel"
)

func TestMaximizeGoldenQuadratic(t *testing.T) {
	tests := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		wantX  float64
		wantF  float64
		tolX   float64
	}{
		{
			name: "parabola interior max",
			f:    func(x float64) float64 { return -(x - 3) * (x - 3) },
			lo:   0, hi: 10, wantX: 3, wantF: 0, tolX: 1e-6,
		},
		{
			name: "max at left boundary",
			f:    func(x float64) float64 { return -x },
			lo:   2, hi: 5, wantX: 2, wantF: -2, tolX: 1e-6,
		},
		{
			name: "max at right boundary",
			f:    func(x float64) float64 { return x * x },
			lo:   0, hi: 4, wantX: 4, wantF: 16, tolX: 1e-6,
		},
		{
			name: "negated exp distance",
			f:    func(x float64) float64 { return math.Exp(-math.Abs(x - 1.25)) },
			lo:   -10, hi: 10, wantX: 1.25, wantF: 1, tolX: 1e-6,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x, fx := MaximizeGolden(tt.f, tt.lo, tt.hi, 1e-10)
			if math.Abs(x-tt.wantX) > tt.tolX {
				t.Errorf("argmax = %g, want %g", x, tt.wantX)
			}
			if math.Abs(fx-tt.wantF) > 1e-6 {
				t.Errorf("max = %g, want %g", fx, tt.wantF)
			}
		})
	}
}

func TestMaximizeGoldenSwappedBounds(t *testing.T) {
	x, _ := MaximizeGolden(func(x float64) float64 { return -(x - 1) * (x - 1) }, 5, -5, 1e-10)
	if math.Abs(x-1) > 1e-6 {
		t.Errorf("argmax with swapped bounds = %g, want 1", x)
	}
}

func TestMaximizeGridMultimodal(t *testing.T) {
	// Two peaks; the global one is at x ≈ 7 with value 2.
	f := func(x float64) float64 {
		return math.Exp(-(x-2)*(x-2)) + 2*math.Exp(-(x-7)*(x-7))
	}
	x, fx := MaximizeGrid(f, 0, 10, 100, 1e-10)
	if math.Abs(x-7) > 1e-4 {
		t.Errorf("global argmax = %g, want 7", x)
	}
	if math.Abs(fx-2) > 1e-4 {
		t.Errorf("global max = %g, want 2", fx)
	}
}

func TestMaximizeGridTinyN(t *testing.T) {
	x, _ := MaximizeGrid(func(x float64) float64 { return -(x - 0.5) * (x - 0.5) }, 0, 1, 1, 1e-12)
	if math.Abs(x-0.5) > 1e-6 {
		t.Errorf("argmax = %g, want 0.5", x)
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %.15g, want sqrt(2)", root)
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if r, err := Bisect(f, 0, 1, 1e-12); err != nil || r != 0 {
		t.Errorf("root at lo: got %g, %v", r, err)
	}
	if r, err := Bisect(f, -1, 0, 1e-12); err != nil || r != 0 {
		t.Errorf("root at hi: got %g, %v", r, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	_, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12)
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBrentRoot(t *testing.T) {
	tests := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		want   float64
	}{
		{"sqrt2", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cosine", math.Cos, 0, 3, math.Pi / 2},
		{"cubic", func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
		{"steep exp", func(x float64) float64 { return math.Exp(x) - 10 }, 0, 5, math.Log(10)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			root, err := BrentRoot(tt.f, tt.lo, tt.hi, 1e-14)
			if err != nil {
				t.Fatalf("BrentRoot: %v", err)
			}
			if math.Abs(root-tt.want) > 1e-9 {
				t.Errorf("root = %.15g, want %.15g", root, tt.want)
			}
		})
	}
}

func TestBrentRootNoBracket(t *testing.T) {
	_, err := BrentRoot(func(x float64) float64 { return 1 + x*x }, -3, 3, 0)
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBrentRootEndpoint(t *testing.T) {
	r, err := BrentRoot(func(x float64) float64 { return x - 2 }, 2, 5, 0)
	if err != nil || r != 2 {
		t.Errorf("endpoint root: got %g, %v", r, err)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{3, 3, 3, 3},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%g, %g, %g) = %g, want %g", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestMaximizeGridPoolMatchesSequentialBitwise(t *testing.T) {
	// A multimodal profit with -Inf infeasible regions, like the leader
	// objectives: the parallel variant must reproduce MaximizeGrid's
	// result bit for bit at every worker count.
	f := func(x float64) float64 {
		if x < 0.7 {
			return math.Inf(-1)
		}
		return math.Sin(3*x) + 0.4*math.Cos(11*x) - 0.01*(x-5)*(x-5)
	}
	for _, n := range []int{2, 16, 137} {
		wantX, wantV := MaximizeGrid(f, 0, 10, n, 1e-10)
		if wantV < scanMax(f, 0, 10, n) {
			t.Errorf("n=%d: value %v below the best scan point", n, wantV)
		}
		for _, workers := range []int{1, 2, 3, 4, 16} {
			x, v, err := MaximizeGridPool(f, 0, 10, n, 1e-10, parallel.New(workers))
			if err != nil {
				t.Fatalf("n=%d workers=%d: unexpected error: %v", n, workers, err)
			}
			if x != wantX || v != wantV {
				t.Errorf("n=%d workers=%d: (%v, %v), want bit-identical (%v, %v)", n, workers, x, v, wantX, wantV)
			}
		}
	}
}

func TestMaximizeGridPoolPanicBecomesError(t *testing.T) {
	// A panic inside the evaluator on the parallel path is recovered by
	// the worker pool and surfaced as an error, never re-raised: the
	// no-panic discipline (see internal/analysis) applies to this
	// library too.
	_, _, err := MaximizeGridPool(func(x float64) float64 { panic("boom") }, 0, 1, 4, 1e-9, parallel.New(2))
	if err == nil {
		t.Fatal("want the task panic reported as an error")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "grid evaluation") {
		t.Errorf("error %q should carry the panic value and the grid-evaluation context", err)
	}
}

func TestMaximizeGridPoolSequentialNeverErrors(t *testing.T) {
	// The sequential path has no goroutine between caller and evaluator,
	// so it cannot produce an error (a panic there propagates unchanged,
	// which MaximizeGrid relies on when discarding the error).
	x, v, err := MaximizeGridPool(func(x float64) float64 { return -x * x }, -1, 1, 8, 1e-9, nil)
	if err != nil {
		t.Fatalf("sequential path returned error: %v", err)
	}
	if gx, gv := MaximizeGrid(func(x float64) float64 { return -x * x }, -1, 1, 8, 1e-9); x != gx || v != gv {
		t.Errorf("pool-nil path (%v, %v) disagrees with MaximizeGrid (%v, %v)", x, v, gx, gv)
	}
}
