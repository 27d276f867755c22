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

// Event is one typed event: Kind says what it does, A is usually an
// index into the handler's tables and B an argument. Kinds from
// kindTick up are the engine's own.
type Event struct {
	Kind uint8
	A    int32
	B    int64
}

// The engine's own kinds: a periodic tick (A is its slot in tickers)
// and an At closure (A is its slot in fns).
const (
	kindTick uint8 = 254
	kindFunc uint8 = 255
)

// keyBefore orders two events by (time, sequence number).
func keyBefore(at Time, seq uint64, oat Time, oseq uint64) bool {
	if at != oat {
		return at < oat
	}
	return seq < oseq
}

// entry is one queued event: its key and what it runs.
type entry[P any] struct {
	at  Time
	seq uint64 // tie-break so same-time events run FIFO, deterministically
	p   P
}

// eventHeap is a binary min-heap of entries by (at, seq), typed and
// with inlined sifts: the container/heap API would box every event
// through interface{} (two allocations per event, on Push and on Pop).
type eventHeap[P any] []entry[P]

// push adds x.
func (h *eventHeap[P]) push(x entry[P]) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !keyBefore(x.at, x.seq, s[p].at, s[p].seq) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
}

// siftDown places x, which replaces the root, in the heap.
func (h eventHeap[P]) siftDown(x entry[P]) {
	n, i := len(h), 0
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

// pop removes the root and returns its payload. The heap must be
// non-empty.
func (h *eventHeap[P]) pop() P {
	s := *h
	root := s[0].p
	n := len(s) - 1
	last := s[n]
	s[n] = entry[P]{} // drop references the payload holds
	*h = s[:n]
	if n > 0 {
		s[:n].siftDown(last)
	}
	return root
}

// ticker is a periodic event: fn runs every interval while the next run
// would be no later than until.
type ticker struct {
	interval, until Time
	fn              func()
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use.
//
// Events live in three queues, each an eventHeap, and every event takes
// its global sequence number when it is scheduled, whatever queue holds
// it:
//
//   - Typed events (AfterEvent), pointer-free {time, seq, Event} entries,
//     run the engine's one event handler (SetEventHandler), except the
//     engine's own kinds: an At closure, which waits in a slot of a slab
//     of funcs that its event names by index, and a periodic tick
//     (SampleOccupancy, queue sampling), which names its ticker the
//     same way.
//   - Header events (AfterHeader), pointer-free {time, seq, Header}
//     entries, run the engine's one header handler (SetHeaderHandler),
//     so a trace generator schedules a packet without a closure.
//   - Packet events go to typed runs: each switch port owns a run of its
//     departures and a run of its arrivals at the peer, and each
//     Fabric.InjectSorted call is one run of header events. A run's
//     (time, seq) keys only grow, so a run is a plain FIFO; the run heap
//     holds one entry per non-empty run, keyed by its head event.
//
// Dispatch takes the earliest of the three heads by (time, seq), which
// is exactly the order one heap over every event would give. No queue
// holds a func, and neither a model's step, a generated header nor a
// packet hop costs a closure or an allocation. Reset empties the engine
// for reuse and keeps the queues' storage.
type Engine struct {
	now      Time
	seq      uint64
	evs      eventHeap[Event]
	onEvent  func(Event) // runs every typed event of a handler kind
	fns      []func()    // At closures by slot
	freeFns  []int32     // free slots of fns
	tickers  []ticker    // tickers by slot
	freeTick []int32     // free slots of tickers
	hdrs     eventHeap[packet.Header]
	onHeader func(packet.Header) // runs every header event
	heads    eventHeap[eventRun] // the non-empty typed runs by head key
	vacant   bool                // heads[0] is a run emptied by the event in dispatch
	typed    int                 // queued typed events across all runs
	pool     []*Packet           // disposed packets, reused by newPacket
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// SetEventHandler installs fn as the engine's event handler: every event
// scheduled by AfterEvent runs fn with its Event. An engine has one
// handler, set once before the first AfterEvent.
func (e *Engine) SetEventHandler(fn func(Event)) {
	if e.onEvent != nil {
		panic("netsim: event handler already set")
	}
	e.onEvent = fn
}

// AfterEvent schedules the event handler to run with ev d after the
// current time. It takes a sequence number and clamps a past time to
// now exactly as At does.
func (e *Engine) AfterEvent(d Time, ev Event) {
	if e.onEvent == nil || ev.Kind >= kindTick {
		panic("netsim: AfterEvent without a handler or with an engine kind")
	}
	e.push(e.now+d, ev)
}

// At schedules fn to run at time t. Scheduling in the past runs fn at the
// current time (immediately in event order). It exists for callers
// outside the models, such as benchmarks and tests that drive an engine
// by hand: fn waits in a slot of a slab and the queued event names the
// slot.
func (e *Engine) At(t Time, fn func()) {
	e.push(t, Event{Kind: kindFunc, A: slot(&e.fns, &e.freeFns, fn)})
}

// every runs fn every interval, from one interval after now, while the
// next run would be no later than until: the first run is scheduled
// whatever until says, and each run schedules the next after fn returns.
func (e *Engine) every(interval, until Time, fn func()) {
	tk := ticker{interval: interval, until: until, fn: fn}
	e.push(e.now+interval, Event{Kind: kindTick, A: slot(&e.tickers, &e.freeTick, tk)})
}

// slot stores x in a free slot of slab, or a new one, and returns it.
func slot[T any](slab *[]T, free *[]int32, x T) int32 {
	if n := len(*free); n > 0 {
		i := (*free)[n-1]
		*free = (*free)[:n-1]
		(*slab)[i] = x
		return i
	}
	*slab = append(*slab, x)
	return int32(len(*slab) - 1)
}

// push queues ev at time t, clamped to now, with the next sequence
// number.
func (e *Engine) push(t Time, ev Event) {
	e.seq++
	e.evs.push(entry[Event]{at: max(t, e.now), seq: e.seq, p: ev})
}

// dispatch runs one typed event. An engine kind frees its slot before
// running, so the run may reuse it.
func (e *Engine) dispatch(ev Event) {
	switch ev.Kind {
	case kindFunc:
		fn := e.fns[ev.A]
		e.fns[ev.A] = nil // drop the reference so the closure can be collected
		e.freeFns = append(e.freeFns, ev.A)
		fn()
	case kindTick:
		tk := e.tickers[ev.A]
		tk.fn()
		if e.now+tk.interval <= tk.until {
			e.push(e.now+tk.interval, ev)
			return
		}
		e.tickers[ev.A] = ticker{}
		e.freeTick = append(e.freeTick, ev.A)
	default:
		e.onEvent(ev)
	}
}

// Reset empties every queue and rewinds the clock and the sequence
// numbers to zero, keeping the queues' storage and the handlers, so one
// engine serves many runs without regrowing its heaps. It panics while
// packet events are queued: their runs belong to switch ports.
func (e *Engine) Reset() {
	if len(e.heads) > 0 {
		panic("netsim: Reset with queued packet events")
	}
	clear(e.fns)
	clear(e.tickers)
	e.now, e.seq = 0, 0
	e.evs, e.hdrs = e.evs[:0], e.hdrs[:0]
	e.fns, e.tickers = e.fns[:0], e.tickers[:0]
	e.freeFns, e.freeTick = e.freeFns[:0], e.freeTick[:0]
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
// number and clamps a past time to now exactly as At does.
func (e *Engine) AfterHeader(d Time, h packet.Header) {
	if e.onHeader == nil {
		panic("netsim: AfterHeader without a header handler")
	}
	e.seq++
	h.Time = max(e.now+d, e.now)
	e.hdrs.push(entry[packet.Header]{at: h.Time, seq: e.seq, p: h})
}

// Event sources, as earliest reports them.
const (
	srcNone = iota
	srcEvent
	srcHeader
	srcRun
)

// earliest returns the queue whose head event runs next and that
// event's time; src is srcNone when every queue is empty. Keys are
// unique, so the minimum is too.
func (e *Engine) earliest() (src int, at Time) {
	var seq uint64
	if len(e.evs) > 0 {
		src, at, seq = srcEvent, e.evs[0].at, e.evs[0].seq
	}
	if len(e.hdrs) > 0 {
		if c := &e.hdrs[0]; src == srcNone || keyBefore(c.at, c.seq, at, seq) {
			src, at, seq = srcHeader, c.at, c.seq
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
// of every kind.
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
			e.heads[0].p.fire(e)
			if e.vacant {
				e.vacant = false
				e.heads.pop()
			}
		case srcHeader:
			e.onHeader(e.hdrs.pop())
		default:
			e.dispatch(e.evs.pop())
		}
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Pending returns the number of queued events of every kind.
func (e *Engine) Pending() int {
	return len(e.evs) + len(e.hdrs) + e.typed
}

// eventRun is a FIFO run of typed events whose (time, seq) keys only
// grow. The engine holds one run heap entry per non-empty run.
type eventRun interface {
	// fire dispatches the run's head event. The engine clock already
	// reads its time. fire first removes the event and calls the
	// engine's rekeyTop or dropTop for the run's entry, which is the
	// heap root, and only then handles the event, so that handlers may
	// schedule onto any run, this one included.
	fire(e *Engine)
}

// pushRun adds a run whose head event has key (at, seq) to the heap.
// A vacant root takes it in one sift down: a hop's next event usually
// lands near the front of the heap, so that sift is short.
func (e *Engine) pushRun(at Time, seq uint64, r eventRun) {
	x := entry[eventRun]{at: at, seq: seq, p: r}
	if e.vacant {
		e.vacant = false
		e.heads.siftDown(x)
		return
	}
	e.heads.push(x)
}

// rekeyTop sets the root run's key to its new head event's and restores
// the heap. The key only grows, so the root sifts down.
func (e *Engine) rekeyTop(at Time, seq uint64) {
	x := e.heads[0]
	x.at, x.seq = at, seq
	e.heads.siftDown(x)
}

// dropTop marks the root run, which has no events left, vacant: the
// next pushRun during the same dispatch replaces it, and Run removes it
// if none does. Until then the root keeps the dispatched event's key,
// which precedes every queued event's, so the heap order holds.
func (e *Engine) dropTop() { e.vacant = true }

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

// sortedRun is a run of header events over a time-sorted header slice:
// header i, its Time shifted by offset, runs the engine's header handler
// at max(hdrs[i].Time+offset, floor) with sequence number seq0+i.
type sortedRun struct {
	hdrs   []packet.Header
	offset Time
	floor  Time   // engine time when scheduled: earlier times clamp to it
	seq0   uint64 // sequence number of hdrs[0]
	next   int
}

// at returns header i's event time.
func (r *sortedRun) at(i int) Time { return max(r.hdrs[i].Time+r.offset, r.floor) }

func (r *sortedRun) fire(e *Engine) {
	h := r.hdrs[r.next]
	h.Time += r.offset
	r.next++
	if r.next == len(r.hdrs) {
		e.dropTop()
	} else {
		e.rekeyTop(r.at(r.next), r.seq0+uint64(r.next))
	}
	e.onHeader(h)
}

// atSorted schedules a header event for every header of hdrs, with
// h.Time shifted by offset, at h.Time: the same events, with the same
// sequence numbers, as one AfterHeader call per header in slice order,
// but held as one typed run. hdrs must be sorted by Time; it is read as
// the run dispatches and never written.
func (e *Engine) atSorted(hdrs []packet.Header, offset Time) {
	if len(hdrs) == 0 {
		return
	}
	for i := 1; i < len(hdrs); i++ {
		if hdrs[i].Time < hdrs[i-1].Time {
			panic("netsim: headers not sorted by time")
		}
	}
	// Reserve one sequence number per header, as len(hdrs) calls would.
	r := &sortedRun{hdrs: hdrs, offset: offset, floor: e.now, seq0: e.seq + 1}
	e.seq += uint64(len(hdrs))
	e.typed += len(hdrs)
	e.pushRun(r.at(0), r.seq0, r)
}

// newPacket returns a zeroed packet from the engine's free list, or a
// new one.
func (e *Engine) newPacket() *Packet {
	if n := len(e.pool); n > 0 {
		p := e.pool[n-1]
		e.pool = e.pool[:n-1]
		return p
	}
	return new(Packet)
}

// freePacket returns a disposed packet to the free list. Nothing may
// hold p afterwards (see Packet).
func (e *Engine) freePacket(p *Packet) {
	*p = Packet{}
	e.pool = append(e.pool, p)
}
