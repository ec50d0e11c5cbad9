package sim

import "testing"

func TestNewRNGStreams(t *testing.T) {
	a1 := NewRNG(42, "alpha")
	a2 := NewRNG(42, "alpha")
	b := NewRNG(42, "beta")
	sameCount, diffCount := 0, 0
	for i := 0; i < 100; i++ {
		x, y, z := a1.Float64(), a2.Float64(), b.Float64()
		if x == y {
			sameCount++
		}
		if x != z {
			diffCount++
		}
	}
	if sameCount != 100 {
		t.Error("same seed+label must reproduce the same stream")
	}
	if diffCount < 95 {
		t.Error("different labels must derive distinct streams")
	}
}
