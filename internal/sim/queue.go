package sim

// Event is one entry of a Queue: an instant, the key that breaks exact
// ties between equal instants, and a payload (Kind, Node, Arg) that only
// the caller interprets.
type Event struct {
	Time float64
	Key  int
	Kind uint8
	Node int
	Arg  int
}

// Before orders events by time, with the key breaking exact-time ties
// so the pop order is deterministic regardless of insertion history.
func (e Event) Before(o Event) bool {
	if e.Time != o.Time { //lint:allow floateq exact tie-break: equal times must fall through to the key comparison
		return e.Time < o.Time
	}
	return e.Key < o.Key
}

// Queue is a binary min-heap of events ordered by (Time, Key). A caller
// that keys events by insertion sequence gets first-in first-out order
// among equal times; a flood that keys them by node index gets
// index order.
type Queue []Event

// Push adds e and sifts it up to its place.
func (h *Queue) Push(e Event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].Before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// Pop removes and returns the earliest event; the queue must not be
// empty.
func (h *Queue) Pop() Event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && q[c+1].Before(q[c]) {
			c++
		}
		if !q[c].Before(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}
