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

import "fbdcnet/internal/packet"

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
	return keyBefore(e.at, e.seq, o.at, o.seq)
}

// keyBefore orders two events by (time, sequence number).
func keyBefore(at Time, seq uint64, oat Time, oseq uint64) bool {
	if at != oat {
		return at < oat
	}
	return seq < oseq
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use.
//
// Events live in four kinds of queue, and every event takes its global
// sequence number when it is scheduled, whatever queue holds it:
//
//   - Closure events (At, After) scheduled no earlier than the newest
//     event of the closure FIFO run go to the back of that run; any
//     other goes into a typed binary min-heap with inlined sift-up and
//     sift-down.
//   - Header events (AfterHeader) go into a pointer-free min-heap of
//     {seq, packet.Header} entries, the header's Time holding the event
//     time. All of them run the engine's one header handler
//     (SetHeaderHandler), so a trace generator schedules a packet
//     without a closure.
//   - Packet events go to typed runs: each switch port owns a run of its
//     departures and a run of its arrivals at the peer, and each
//     Fabric.InjectSorted call is one run of header injections. A run's
//     (time, seq) keys only grow, so a run is a plain FIFO; a heap
//     over the runs' head events (one entry per non-empty run) finds the
//     earliest.
//
// Dispatch takes the earliest of the four heads by (time, seq). Each
// queue is sorted by that key, so the merge is exactly the order one
// heap over every event would give. The closure heap holds only closures
// scheduled out of order, the run heap one entry per non-empty run (a
// port's whole backlog is one entry), and neither a generated header nor
// a packet hop costs a closure or an allocation. Scheduling and dispatch
// are the simulator's hottest path, and the container/heap API would box
// every event through interface{} (two heap allocations per event, one
// on Push and one on Pop).
type Engine struct {
	now      Time
	seq      uint64
	heap     []event
	fifo     []event
	fifoHead int                 // fifo[:fifoHead] is dispatched
	hdrs     []hdrEvent          // min-heap of header events
	onHeader func(packet.Header) // runs every header event
	heads    []runHead           // min-heap of the non-empty typed runs by head key
	vacant   bool                // heads[0] is a run emptied by the event in dispatch
	typed    int                 // queued typed events across all runs
	free     []*Packet           // disposed packets, reused by newPacket
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
	if n := len(e.fifo); n == e.fifoHead || t >= e.fifo[n-1].at {
		e.fifo = append(e.fifo, ev)
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

// pop removes and returns the earliest closure heap event. The heap
// must be non-empty.
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

// hdrEvent is one header event. h.Time is its event time.
type hdrEvent struct {
	seq uint64
	h   packet.Header
}

// SetHeaderHandler installs fn as the engine's header handler: every
// header event scheduled by AfterHeader runs fn with its header. An
// engine has one handler, set once before the first AfterHeader.
func (e *Engine) SetHeaderHandler(fn func(packet.Header)) {
	if e.onHeader != nil {
		panic("netsim: header handler already set")
	}
	e.onHeader = fn
}

// AfterHeader schedules the header handler to run with h, its Time set
// to the event time, d after the current time. It takes a sequence
// number and clamps a past time to now exactly as At does, so it
// dispatches where After(d, func() { handler(h) }) would, without the
// closure.
func (e *Engine) AfterHeader(d Time, h packet.Header) {
	if e.onHeader == nil {
		panic("netsim: AfterHeader without a header handler")
	}
	t := e.now + d
	if t < e.now {
		t = e.now
	}
	e.seq++
	h.Time = t
	e.hdrs = append(e.hdrs, hdrEvent{seq: e.seq, h: h})
	hs := e.hdrs
	i := len(hs) - 1
	x := hs[i]
	for i > 0 {
		p := (i - 1) / 2
		if !keyBefore(x.h.Time, x.seq, hs[p].h.Time, hs[p].seq) {
			break
		}
		hs[i] = hs[p]
		i = p
	}
	hs[i] = x
}

// popHeader removes and returns the earliest header event's header. The
// header heap must be non-empty.
func (e *Engine) popHeader() packet.Header {
	hs := e.hdrs
	root := hs[0].h
	n := len(hs) - 1
	last := hs[n]
	e.hdrs = hs[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && keyBefore(hs[r].h.Time, hs[r].seq, hs[c].h.Time, hs[c].seq) {
				c = r
			}
			if !keyBefore(hs[c].h.Time, hs[c].seq, last.h.Time, last.seq) {
				break
			}
			hs[i] = hs[c]
			i = c
		}
		hs[i] = last
	}
	return root
}

// Event sources, as earliest reports them.
const (
	srcNone = iota
	srcFIFO
	srcHeap
	srcHeader
	srcRun
)

// earliest returns the queue whose head event runs next and that
// event's time; src is srcNone when every queue is empty. Keys are
// unique, so the minimum is too.
func (e *Engine) earliest() (src int, at Time) {
	var seq uint64
	if e.fifoHead < len(e.fifo) {
		c := &e.fifo[e.fifoHead]
		src, at, seq = srcFIFO, c.at, c.seq
	}
	if len(e.heap) > 0 {
		if c := &e.heap[0]; src == srcNone || keyBefore(c.at, c.seq, at, seq) {
			src, at, seq = srcHeap, c.at, c.seq
		}
	}
	if len(e.hdrs) > 0 {
		if c := &e.hdrs[0]; src == srcNone || keyBefore(c.h.Time, c.seq, at, seq) {
			src, at, seq = srcHeader, c.h.Time, c.seq
		}
	}
	if len(e.heads) > 0 {
		if c := &e.heads[0]; src == srcNone || keyBefore(c.at, c.seq, at, seq) {
			src, at = srcRun, c.at
		}
	}
	return src, at
}

// Run executes events in time order until the queue is empty or the next
// event is later than until. It returns the number of events executed,
// closure, header and typed alike.
func (e *Engine) Run(until Time) int {
	n := 0
	for {
		src, at := e.earliest()
		if src == srcNone || at > until {
			break
		}
		e.now = at
		switch src {
		case srcRun:
			e.typed--
			e.heads[0].r.fire(e)
			if e.vacant {
				e.vacant = false
				e.removeTop()
			}
		case srcHeader:
			e.onHeader(e.popHeader())
		case srcFIFO:
			r := &e.fifo[e.fifoHead]
			fn := r.fn
			*r = event{} // drop the fn reference so the closure can be collected
			e.fifoHead++
			if e.fifoHead == len(e.fifo) {
				e.fifo, e.fifoHead = e.fifo[:0], 0
			}
			fn()
		default:
			e.pop().fn()
		}
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Pending returns the number of queued events, closure, header and
// typed alike.
func (e *Engine) Pending() int {
	return len(e.heap) + len(e.fifo) - e.fifoHead + len(e.hdrs) + e.typed
}

// eventRun is a FIFO run of typed events whose (time, seq) keys only
// grow. The engine holds one runHead per non-empty run.
type eventRun interface {
	// fire dispatches the run's head event. The engine clock already
	// reads its time. fire first removes the event and calls the
	// engine's rekeyTop or dropTop for the run's entry, which is the
	// heap root, and only then handles the event, so that handlers may
	// schedule onto any run, this one included.
	fire(e *Engine)
}

// runHead is a run's entry in the engine's run heap, keyed by the run's
// head event.
type runHead struct {
	at  Time
	seq uint64
	r   eventRun
}

// pushRun adds a run whose head event has key (at, seq) to the heap.
// A vacant root takes it in one sift down: a hop's next event usually
// lands near the front of the heap, so that sift is short.
func (e *Engine) pushRun(at Time, seq uint64, r eventRun) {
	if e.vacant {
		e.vacant = false
		e.siftDownRuns(runHead{at: at, seq: seq, r: r})
		return
	}
	e.heads = append(e.heads, runHead{at: at, seq: seq, r: r})
	h := e.heads
	i := len(h) - 1
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !keyBefore(x.at, x.seq, h[p].at, h[p].seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// rekeyTop sets the root run's key to its new head event's and restores
// the heap. The key only grows, so the root sifts down.
func (e *Engine) rekeyTop(at Time, seq uint64) {
	x := e.heads[0]
	x.at, x.seq = at, seq
	e.siftDownRuns(x)
}

// dropTop marks the root run, which has no events left, vacant: the
// next pushRun during the same dispatch replaces it, and Run removes it
// if none does. Until then the root keeps the dispatched event's key,
// which precedes every queued event's, so the heap order holds.
func (e *Engine) dropTop() { e.vacant = true }

// removeTop removes the root run.
func (e *Engine) removeTop() {
	h := e.heads
	n := len(h) - 1
	last := h[n]
	h[n] = runHead{}
	e.heads = h[:n]
	if n > 0 {
		e.siftDownRuns(last)
	}
}

// siftDownRuns places x, which replaces the root, in the run heap.
func (e *Engine) siftDownRuns(x runHead) {
	h := e.heads
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && keyBefore(h[r].at, h[r].seq, h[c].at, h[c].seq) {
			c = r
		}
		if !keyBefore(h[c].at, h[c].seq, x.at, x.seq) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// pktEvent is one typed packet event: a departure from a port or an
// arrival at its peer.
type pktEvent struct {
	at  Time
	seq uint64
	p   *Packet
}

// pktRun is the FIFO of a run of packet events. evs[head:] is pending.
type pktRun struct {
	evs  []pktEvent
	head int
}

// push appends p at time at to the run owned by r, whose fire takes
// from q, and enters r in the run heap when the run was empty. at must
// be no earlier than the run's newest event.
func (q *pktRun) push(e *Engine, r eventRun, at Time, p *Packet) {
	e.seq++
	e.typed++
	n := len(q.evs)
	switch {
	case n == 0:
		e.pushRun(at, e.seq, r)
	case at < q.evs[n-1].at:
		panic("netsim: packet event scheduled before its run's newest event")
	case n == cap(q.evs) && q.head*2 >= n:
		// Slide the pending tail down instead of growing a run that
		// never quite drains.
		m := copy(q.evs, q.evs[q.head:])
		q.evs, q.head = q.evs[:m], 0
	}
	q.evs = append(q.evs, pktEvent{at: at, seq: e.seq, p: p})
}

// take removes the run's head event, re-keys or drops the run's heap
// entry, and returns the event's packet.
func (q *pktRun) take(e *Engine) *Packet {
	ev := &q.evs[q.head]
	p := ev.p
	ev.p = nil
	q.head++
	if q.head == len(q.evs) {
		q.evs, q.head = q.evs[:0], 0
		e.dropTop()
	} else {
		nx := &q.evs[q.head]
		e.rekeyTop(nx.at, nx.seq)
	}
	return p
}

// sortedRun dispatches fn over a time-sorted header slice: header i is
// one typed event at max(hdrs[i].Time+offset, floor) with sequence
// number seq0+i. fn receives the header with offset added to its Time.
type sortedRun struct {
	hdrs   []packet.Header
	offset Time
	floor  Time   // engine time when scheduled: At clamps earlier times to it
	seq0   uint64 // sequence number of hdrs[0]
	next   int
	fn     func(packet.Header)
}

// at returns header i's event time.
func (r *sortedRun) at(i int) Time {
	if t := r.hdrs[i].Time + r.offset; t > r.floor {
		return t
	}
	return r.floor
}

func (r *sortedRun) fire(e *Engine) {
	h := r.hdrs[r.next]
	h.Time += r.offset
	r.next++
	if r.next == len(r.hdrs) {
		e.dropTop()
	} else {
		e.rekeyTop(r.at(r.next), r.seq0+uint64(r.next))
	}
	r.fn(h)
}

// atSorted schedules fn(h), with h.Time shifted by offset, for every
// header of hdrs at h.Time: the same events, with the same sequence
// numbers, as one At call per header in slice order, but held as one
// typed run instead of a closure each. hdrs must be sorted by Time; it
// is read as the run dispatches and never written.
func (e *Engine) atSorted(hdrs []packet.Header, offset Time, fn func(packet.Header)) {
	if len(hdrs) == 0 {
		return
	}
	for i := 1; i < len(hdrs); i++ {
		if hdrs[i].Time < hdrs[i-1].Time {
			panic("netsim: headers not sorted by time")
		}
	}
	// Reserve one sequence number per header, as len(hdrs) At calls would.
	r := &sortedRun{hdrs: hdrs, offset: offset, floor: e.now, seq0: e.seq + 1, fn: fn}
	e.seq += uint64(len(hdrs))
	e.typed += len(hdrs)
	e.pushRun(r.at(0), r.seq0, r)
}

// newPacket returns a zeroed packet from the engine's free list, or a
// new one.
func (e *Engine) newPacket() *Packet {
	if n := len(e.free); n > 0 {
		p := e.free[n-1]
		e.free = e.free[:n-1]
		return p
	}
	return new(Packet)
}

// freePacket returns a disposed packet to the free list. Nothing may
// hold p afterwards (see Packet).
func (e *Engine) freePacket(p *Packet) {
	*p = Packet{}
	e.free = append(e.free, p)
}
