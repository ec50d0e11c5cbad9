package sim

import (
	"reflect"
	"sort"
	"testing"
)

// seqQueue pushes the given times keyed by insertion sequence (1, 2,
// …), as the topology race keys its events.
func seqQueue(times ...float64) Queue {
	var q Queue
	for i, at := range times {
		q.Push(Event{Time: at, Key: i + 1})
	}
	return q
}

// drain pops every event of q in order.
func drain(q Queue) []Event {
	out := make([]Event, 0, len(q))
	for len(q) > 0 {
		out = append(out, q.Pop())
	}
	return out
}

func TestScheduleOrdering(t *testing.T) {
	got := drain(seqQueue(3, 1, 2))
	if len(got) != 3 {
		t.Fatalf("popped %d events, want 3", len(got))
	}
	for i, want := range []float64{1, 2, 3} {
		if got[i].Time != want { //lint:allow floateq exact integer-valued times
			t.Fatalf("pop order %v, want times 1, 2, 3", got)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	times := make([]float64, 10)
	for i := range times {
		times[i] = 5
	}
	for i, e := range drain(seqQueue(times...)) {
		if e.Key != i+1 {
			t.Fatalf("same-time events out of insertion order at pop %d: key %d", i, e.Key)
		}
	}
}

// TestCascadingEvents: events pushed between pops, at or after the
// popped event's time as the race schedules them, still pop in (time,
// key) order.
func TestCascadingEvents(t *testing.T) {
	// A chain: each pop schedules one follow-up 10 later.
	q := seqQueue(0)
	var times []float64
	for seq := 1; len(q) > 0; {
		e := q.Pop()
		times = append(times, e.Time)
		if len(times) < 4 {
			seq++
			q.Push(Event{Time: e.Time + 10, Key: seq})
		}
	}
	if want := []float64{0, 10, 20, 30}; !reflect.DeepEqual(times, want) {
		t.Fatalf("times = %v, want %v", times, want)
	}

	// A random cascade: each pop schedules one or two follow-ups at
	// coarse offsets until 400 events exist.
	rng := NewRNG(21, "queue-cascade")
	q = nil
	seq := 0
	for i := 0; i < 5; i++ {
		seq++
		q.Push(Event{Time: float64(rng.Intn(3)), Key: seq})
	}
	var prev Event
	for pops := 0; len(q) > 0; pops++ {
		e := q.Pop()
		if pops > 0 && e.Before(prev) {
			t.Fatalf("pop %d: %+v came out after %+v", pops, e, prev)
		}
		prev = e
		for f := 1 + rng.Intn(2); f > 0 && seq < 400; f-- {
			seq++
			q.Push(Event{Time: e.Time + float64(rng.Intn(3)), Key: seq})
		}
	}
	if seq != 400 {
		t.Fatalf("cascade scheduled %d events, want 400", seq)
	}
}

// TestRandomSchedulePropertyOrdering: under arbitrary batches keyed by
// insertion sequence, events pop in nondecreasing time with the
// sequence breaking exact ties (a sort.Slice oracle), and the pop order
// does not depend on push order — the (time, seq) contract the topology
// race's parent-before-child finality argument rests on.
func TestRandomSchedulePropertyOrdering(t *testing.T) {
	rng := NewRNG(31, "engine-property")
	for trial := 0; trial < 50; trial++ {
		items := make([]Event, 1+rng.Intn(60))
		for i := range items {
			items[i] = Event{Time: float64(rng.Intn(5)), Key: i + 1} // coarse times force ties
		}
		var q Queue
		for _, e := range items {
			q.Push(e)
		}
		got := drain(q)
		want := append([]Event(nil), items...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Time != want[j].Time { //lint:allow floateq exact tie-break mirror of Event.Before
				return want[i].Time < want[j].Time
			}
			return want[i].Key < want[j].Key
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: pop order %v, want sorted %v", trial, got, want)
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		var shuffled Queue
		for _, e := range items {
			shuffled.Push(e)
		}
		if got2 := drain(shuffled); !reflect.DeepEqual(got, got2) {
			t.Fatalf("trial %d: pop order depends on insertion order:\n %v\n %v", trial, got, got2)
		}
	}
}
