// Package sim provides the seeded random number streams (NewRNG) that
// every simulator, experiment and test in the module draws from, and
// the one event queue (Queue, a (time, key)-ordered min-heap of value
// events) that the topology race and its Dijkstra floods in
// internal/chain/topo pop from. The simulators themselves are plain
// loops over these.
package sim

import (
	"hash/fnv"
	"math/rand"
)

// NewRNG returns a seeded random stream. Distinct labels derive
// independent streams from the same base seed, so subsystems can be
// re-run or reordered without perturbing one another's randomness.
func NewRNG(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label)) //lint:allow errflow hash.Hash.Write is documented to never return an error
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}
