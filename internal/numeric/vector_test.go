package numeric

import "testing"

func TestVecArithmetic(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %g", got)
	}
}
