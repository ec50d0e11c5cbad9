package numeric

// Vec is a dense float64 vector, used by the multi-provider extension
// where a miner's strategy has more than two components.
type Vec []float64

// Dot returns v·w.
func (v Vec) Dot(w Vec) float64 {
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}
