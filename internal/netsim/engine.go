// Package netsim is a discrete-event, packet-level network simulator: an
// event engine, rate-limited links, and output-queued switches with a
// shared egress buffer pool.
//
// The simulator exists to reproduce the switching-layer observations in
// §6 of the paper — buffer occupancy sampled at 10 µs granularity,
// egress drops, and tiered link utilization (§4.1) — which cannot be
// derived from packet-header traces alone. Traffic enters via Fabric's
// Inject, is routed host→RSW→CSW→FC along ECMP paths chosen by flow hash,
// and exits into host sinks.
package netsim

// Time is simulation time in nanoseconds.
type Time = int64

// Common durations in simulation time units.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

type event struct {
	at  Time
	seq uint64 // tie-break so same-time events run FIFO, deterministically
	fn  func()
}

// before reports whether e should run before o: earlier time first,
// FIFO by sequence number on ties.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use.
//
// Events live in two queues. An event scheduled no earlier than the
// newest event in the FIFO run goes to the back of the run; any other
// goes into a typed binary min-heap with inlined sift-up and sift-down.
// The run stays sorted because sequence numbers only grow, so dispatch
// takes the earlier of the two heads and sees the same order one heap
// would give. Workloads scheduled up front in time order (injected
// traces) then sit in the run, and the heap holds only the events
// scheduled while the simulation runs, which keeps it small. Scheduling
// and dispatch are the simulator's hottest path, and the container/heap
// API would box every event through interface{} (two heap allocations
// per event, one on Push and one on Pop).
type Engine struct {
	now     Time
	seq     uint64
	heap    []event
	run     []event
	runHead int // run[:runHead] is dispatched
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at time t. Scheduling in the past runs fn at the
// current time (immediately in event order).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	if n := len(e.run); n == e.runHead || t >= e.run[n-1].at {
		e.run = append(e.run, ev)
		return
	}
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// next removes and returns the earliest queued event; ok is false when
// both queues are empty or that event is later than until.
func (e *Engine) next(until Time) (ev event, ok bool) {
	if e.runHead < len(e.run) {
		r := &e.run[e.runHead]
		if len(e.heap) == 0 || r.before(e.heap[0]) {
			if r.at > until {
				return event{}, false
			}
			ev = *r
			*r = event{} // drop the fn reference so the closure can be collected
			e.runHead++
			if e.runHead == len(e.run) {
				e.run, e.runHead = e.run[:0], 0
			}
			return ev, true
		}
	}
	if len(e.heap) == 0 || e.heap[0].at > until {
		return event{}, false
	}
	return e.pop(), true
}

// pop removes and returns the earliest heap event. The heap must be
// non-empty.
func (e *Engine) pop() event {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the fn reference so the closure can be collected
	e.heap = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return root
}

// Run executes events in time order until the queue is empty or the next
// event is later than until. It returns the number of events executed.
func (e *Engine) Run(until Time) int {
	n := 0
	for {
		ev, ok := e.next(until)
		if !ok {
			break
		}
		e.now = ev.at
		ev.fn()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.run) - e.runHead }
