package main

import (
	"sort"
	"time"
)

// The reference kernel is a fixed piece of work, unrelated to the
// program under test, that the benchmark runs between timed items. The
// host this benchmark was tuned on changes speed by itself (a pass of
// the float+walk kernel described below took anywhere from 0.47 ms to
// 2.5 ms within 20 s), so every item
// time is rescaled by refNominalMs/refMeasured: the result reads as
// "time at the nominal machine speed".
//
// The kernel is ordinary branchy Go work: sorting a fixed slice of
// floats and updating a small map. On the reference host (2 vCPU,
// 2 MiB L2 per vCPU) a float loop plus a dependent walk over a 4 MiB
// permutation tracked the workloads worse: over 40 s of repeated
// two-stage solves interleaved with each candidate, the walk's own
// coefficient of variation was 0.94 and its correlation with the solve
// time −0.25, the float loop's −0.30, while sort+map correlated +0.66
// and cut the solve's variation from 9.3% to 7.8%.

// refNominalMs is the kernel's median time on the reference host
// (2 vCPU Xeon, go1.24, linux/amd64). It only fixes the unit of the
// normalized metrics; changing it rescales every timing.
const refNominalMs = 1.1

const (
	refSortLen = 1 << 13
	refMapKeys = 1 << 10
	// refRepeats kernel passes make one measurement; their median
	// discards a pass that was preempted.
	refRepeats = 3
	// refWarmPasses untimed passes first bring the kernel's data back
	// into cache, so what a workload left in the cache cannot bias the
	// measurement.
	refWarmPasses = 2
)

// refKernel owns the kernel's data; build it once with newRefKernel.
type refKernel struct {
	src, buf []float64
	m        map[int]int
	sink     float64
}

// newRefKernel fills the sort input from a fixed LCG, so every process
// sorts the same numbers.
func newRefKernel() *refKernel {
	k := &refKernel{src: make([]float64, refSortLen), buf: make([]float64, refSortLen), m: make(map[int]int, refMapKeys)}
	state := uint64(0x9E3779B97F4A7C15)
	for i := range k.src {
		state = state*6364136223846793005 + 1442695040888963407
		k.src[i] = float64(state>>11) / (1 << 53)
	}
	return k
}

// pass runs the kernel's work once.
func (k *refKernel) pass() {
	copy(k.buf, k.src)
	sort.Float64s(k.buf)
	for i := 0; i < refSortLen; i++ {
		k.m[i&(refMapKeys-1)] += i
	}
	k.sink += k.buf[refSortLen/2] + float64(len(k.m))
}

// measure times refRepeats passes and returns the median in ms.
func (k *refKernel) measure() float64 {
	for i := 0; i < refWarmPasses; i++ {
		k.pass()
	}
	var t [refRepeats]float64
	for i := range t {
		start := time.Now()
		k.pass()
		t[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	s := t[:]
	sort.Float64s(s)
	return s[len(s)/2]
}

// normalize rescales a raw duration (any unit) measured next to a kernel
// time of refMs to the nominal machine speed.
func normalize(raw, refMs float64) float64 {
	return raw * refNominalMs / refMs
}
