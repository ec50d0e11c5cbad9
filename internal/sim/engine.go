// Package sim provides a deterministic discrete-event simulation engine,
// a virtual clock and an event queue ordered by (time, insertion
// sequence), and seeded random number streams (NewRNG). The engine's
// only user is the topology race in internal/chain/topo (race.go); the
// other chain simulators and the reinforcement-learning environments
// are plain loops over seeded streams such as NewRNG's.
package sim

import (
	"container/heap"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"minegame/internal/obs"
)

// Handler is the action executed when an event fires. It receives the
// engine so it can schedule follow-up events.
type Handler func(*Engine)

type event struct {
	time float64
	seq  uint64
	fn   Handler
}

type eventQueue []*event

// Len implements heap.Interface.
func (q eventQueue) Len() int { return len(q) }

// Less implements heap.Interface: earlier events pop first, with the
// insertion sequence number breaking exact-time ties so simultaneous
// events fire in a deterministic order.
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time { //lint:allow floateq exact tie-break: equal times must fall through to the seq comparison
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

// Swap implements heap.Interface.
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// Push implements heap.Interface.
func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

// Pop implements heap.Interface.
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	queue   eventQueue
	now     float64
	seq     uint64
	stopped bool
	// highWater tracks the deepest the event queue has ever been — a
	// plain int so the hot scheduling path stays observer-free.
	highWater int
	observer  *obs.Observer
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// SetObserver routes this engine's run telemetry (events fired, queue
// high-water mark, virtual-time rate) to o instead of the process-wide
// default observer.
func (e *Engine) SetObserver(o *obs.Observer) { e.observer = o }

// obsv resolves the engine's effective observer.
func (e *Engine) obsv() *obs.Observer {
	if e.observer != nil {
		return e.observer
	}
	return obs.Default()
}

// QueueHighWater returns the deepest the pending-event queue has been
// over the engine's lifetime (Reset clears it).
func (e *Engine) QueueHighWater() int { return e.highWater }

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Len returns the number of pending events.
func (e *Engine) Len() int { return len(e.queue) }

// Schedule enqueues fn to run delay time units from now. Negative delays
// are treated as zero. Events scheduled for the same instant fire in
// insertion order.
func (e *Engine) Schedule(delay float64, fn Handler) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt enqueues fn to run at absolute time t. Times in the past are
// clamped to the current clock.
func (e *Engine) ScheduleAt(t float64, fn Handler) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, &event{time: t, seq: e.seq, fn: fn})
	if len(e.queue) > e.highWater {
		e.highWater = len(e.queue)
	}
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.time
	ev.fn(e)
	return true
}

// Run executes events until the queue drains, Stop is called, or the next
// event would fire after horizon. Pass math.Inf(1) for no horizon. It
// returns the number of events executed.
//
// When an observer is enabled, each Run records the events fired, the
// queue high-water mark, the virtual clock, and the virtual-time rate
// (simulated seconds advanced per wall-clock second); the per-event loop
// itself carries no instrumentation.
func (e *Engine) Run(horizon float64) int {
	ob := e.obsv()
	observing := ob.Enabled()
	var wallStart time.Time
	startVirtual := e.now
	if observing {
		wallStart = time.Now()
	}
	e.stopped = false
	executed := 0
	for !e.stopped && len(e.queue) > 0 {
		if e.queue[0].time > horizon {
			break
		}
		e.Step()
		executed++
	}
	if observing {
		ob.Count("sim.events_fired_total", int64(executed))
		ob.Count("sim.runs_total", 1)
		ob.MaxGauge("sim.queue_high_water", float64(e.highWater))
		ob.SetGauge("sim.virtual_time", e.now)
		if wall := time.Since(wallStart).Seconds(); wall > 0 && e.now > startVirtual {
			ob.SetGauge("sim.virtual_time_rate", (e.now-startVirtual)/wall)
		}
	}
	return executed
}

// RunAll executes every pending event (including ones scheduled during the
// run) and returns how many fired.
func (e *Engine) RunAll() int { return e.Run(math.Inf(1)) }

// Stop halts the current Run after the in-flight event finishes. Pending
// events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Reset clears all pending events and rewinds the clock to zero.
func (e *Engine) Reset() {
	e.queue = nil
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.highWater = 0
}

// NewRNG returns a seeded random stream. Distinct labels derive
// independent streams from the same base seed, so subsystems can be
// re-run or reordered without perturbing one another's randomness.
func NewRNG(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label)) //lint:allow errflow hash.Hash.Write is documented to never return an error
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}
