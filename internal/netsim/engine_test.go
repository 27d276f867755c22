package netsim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fbdcnet/internal/packet"
	"fbdcnet/internal/topology"
)

// TestEngineHeapStress drives the typed heap with an adversarial
// insertion pattern — descending times, heavy same-time ties, interleaved
// scheduling from inside handlers — and checks the dispatch order against
// a stable-sorted reference.
func TestEngineHeapStress(t *testing.T) {
	var e Engine
	type stamp struct {
		at  Time
		id  int
		ins int // insertion order, the FIFO tie-break contract
	}
	var want []stamp
	var got []stamp

	id := 0
	schedule := func(at Time) {
		s := stamp{at: at, id: id, ins: id}
		id++
		want = append(want, s)
		e.At(at, func() {
			got = append(got, stamp{at: e.Now(), id: s.id, ins: s.ins})
		})
	}

	// Descending times with ties every third insert.
	for i := 0; i < 300; i++ {
		schedule(Time((300 - i) % 37))
	}
	// Events scheduled from inside a handler land after already-queued
	// same-time events.
	e.At(5, func() {
		e.At(e.Now(), func() { got = append(got, stamp{at: e.Now(), id: -1, ins: 1 << 30}) })
	})
	want = append(want, stamp{at: 5, id: -1, ins: 1 << 30})

	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })

	if n := e.Run(1000); n != len(want)+1 { // +1 for the wrapper at t=5
		t.Fatalf("ran %d events, want %d", n, len(want)+1)
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id || got[i].at != want[i].at {
			t.Fatalf("event %d: got (t=%d id=%d), want (t=%d id=%d)",
				i, got[i].at, got[i].id, want[i].at, want[i].id)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after drain", e.Pending())
	}
}

// refEngine is the dispatch contract spelled out: run the queued event
// with the smallest (time, scheduling order), found by a linear scan.
// Typed, ticker, header, packet-run and sorted-header events are plain
// closures to it: each takes its place in that order when it is
// scheduled.
type refEngine struct {
	now      Time
	seq      uint64
	q        []refEvent
	onEvent  func(Event)
	onHeader func(packet.Header)
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

func (r *refEngine) Now() Time { return r.now }

func (r *refEngine) At(t Time, fn func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.q = append(r.q, refEvent{at: t, seq: r.seq, fn: fn})
}

func (r *refEngine) SetEventHandler(fn func(Event)) { r.onEvent = fn }

func (r *refEngine) AfterEvent(d Time, ev Event) {
	r.At(r.now+d, func() { r.onEvent(ev) })
}

func (r *refEngine) Every(interval, until Time, fn func()) {
	var tick func()
	tick = func() {
		fn()
		if r.now+interval <= until {
			r.At(r.now+interval, tick)
		}
	}
	r.At(r.now+interval, tick)
}

func (r *refEngine) SetHeaderHandler(fn func(packet.Header)) { r.onHeader = fn }

func (r *refEngine) AfterHeader(d Time, h packet.Header) {
	h.Time = max(r.now+d, r.now)
	r.At(h.Time, func() { r.onHeader(h) })
}

func (r *refEngine) Typed(_ int, t Time, fn func()) { r.At(t, fn) }

func (r *refEngine) Sorted(hdrs []packet.Header, offset Time) {
	for _, h := range hdrs {
		h.Time += offset
		r.At(h.Time, func() { r.onHeader(h) })
	}
}

func (r *refEngine) Pending() int { return len(r.q) }

func (r *refEngine) Run(until Time) int {
	n := 0
	for len(r.q) > 0 {
		m := 0
		for i := range r.q {
			if keyBefore(r.q[i].at, r.q[i].seq, r.q[m].at, r.q[m].seq) {
				m = i
			}
		}
		if r.q[m].at > until {
			break
		}
		ev := r.q[m]
		r.q = append(r.q[:m], r.q[m+1:]...)
		r.now = ev.at
		ev.fn()
		n++
	}
	if r.now < until {
		r.now = until
	}
	return n
}

// testRun is a typed run whose events call test handlers, kept in a
// FIFO beside the run's packet events.
type testRun struct {
	pktRun
	fns []func()
}

func (r *testRun) fire(e *Engine) {
	r.take(e)
	fn := r.fns[0]
	r.fns = r.fns[1:]
	fn()
}

// typedEngine drives an Engine's typed runs and sorted-header runs
// through the same calls the reference takes.
type typedEngine struct {
	*Engine
	runs []*testRun
}

func (t *typedEngine) Typed(k int, at Time, fn func()) {
	r := t.runs[k]
	r.fns = append(r.fns, fn)
	r.push(t.Engine, r, at, &Packet{})
}

func (t *typedEngine) Every(interval, until Time, fn func()) { t.every(interval, until, fn) }

func (t *typedEngine) Sorted(hdrs []packet.Header, offset Time) {
	t.atSorted(hdrs, offset)
}

// TestEngineRunQueueOrder checks that the typed event heap (handler
// events, At closures and tickers), the header heap, many typed runs and
// sorted-header runs together dispatch in exactly the reference order.
// The program mixes ascending, out-of-order and past-time inserts of At
// closures and handler events, header events (some with negative
// delays, clamped to now), periodic tickers, typed pushes onto 16 runs
// and sorted header batches, some of them partly in the past. Coarse
// delays force same-time ties across every source; handlers schedule
// more events of every kind, and Run calls stop mid-queue. The log also
// records Pending, every handler event's operands, every header event's
// time and every sorted header's shifted time, and no sorted batch may
// be written to.
func TestEngineRunQueueOrder(t *testing.T) {
	type scheduler interface {
		Now() Time
		At(Time, func())
		SetEventHandler(func(Event))
		AfterEvent(Time, Event)
		Every(interval, until Time, fn func())
		SetHeaderHandler(func(packet.Header))
		AfterHeader(Time, packet.Header)
		Typed(int, Time, func())
		Sorted([]packet.Header, Time)
		Run(Time) int
		Pending() int
	}
	const nRuns = 16
	type batch struct{ hdrs, orig []packet.Header }
	drive := func(s scheduler, seed int64) ([]Time, []batch) {
		r := rand.New(rand.NewSource(seed))
		var log []Time
		var batches []batch
		last := make([]Time, nRuns) // typed runs only take monotone times
		id := 0
		var spawn func(at Time, depth int)
		handle := func(me Time, depth int) {
			log = append(log, me, s.Now())
			for k := r.Intn(3); k > 0 && depth < 4; k-- {
				spawn(s.Now()+Time(r.Intn(6)*10-10), depth+1) // coarse delays: many ties
			}
		}
		closure := func(at Time, depth int) {
			me := Time(id)
			id++
			s.At(at, func() { handle(me, depth) })
		}
		// A header event carries its id in Size and its depth in SrcPort.
		s.SetHeaderHandler(func(h packet.Header) {
			log = append(log, h.Time)
			handle(Time(h.Size), int(h.Key.SrcPort))
		})
		// A handler event carries its id in A and its depth in B.
		s.SetEventHandler(func(ev Event) {
			log = append(log, Time(ev.Kind), s.Now())
			handle(Time(ev.A), int(ev.B))
		})
		event := func(at Time, depth int) {
			s.AfterEvent(at-s.Now(), Event{Kind: uint8(id % 7), A: int32(id), B: int64(depth)})
			id++
		}
		ticker := func(depth int) {
			me := Time(id)
			id++
			s.Every(Time(1+r.Intn(3))*10, s.Now()+Time(r.Intn(120)), func() { handle(me, depth) })
		}
		header := func(at Time, depth int) {
			h := packet.Header{Time: -7, Size: uint32(id), Key: packet.FlowKey{SrcPort: uint16(depth)}}
			id++
			s.AfterHeader(at-s.Now(), h)
		}
		typed := func(k int, at Time, depth int) {
			at = max(at, s.Now(), last[k])
			last[k] = at
			me := Time(id)
			id++
			s.Typed(k, at, func() { handle(me, depth) })
		}
		sorted := func(at Time, depth int) {
			hdrs := make([]packet.Header, 1+r.Intn(12))
			tm := Time(r.Intn(4) * 10)
			for i := range hdrs {
				hdrs[i].Time = tm
				hdrs[i].Size = uint32(id)
				hdrs[i].Key.SrcPort = uint16(depth)
				id++
				tm += Time(r.Intn(3) * 10)
			}
			batches = append(batches, batch{hdrs, append([]packet.Header(nil), hdrs...)})
			s.Sorted(hdrs, at-20) // runs the header handler
		}
		spawn = func(at Time, depth int) {
			switch r.Intn(10) {
			case 0, 1:
				closure(at, depth)
			case 2, 3:
				typed(r.Intn(nRuns), at, depth)
			case 4, 5:
				header(at, depth)
			case 6, 7:
				event(at, depth)
			case 8:
				if depth < 2 {
					ticker(depth + 2) // its runs spawn little
				} else {
					event(at, depth)
				}
			default:
				if depth < 2 { // a batch fans out: keep the program small
					sorted(at, depth)
				} else {
					closure(at, depth)
				}
			}
		}
		for i := 0; i < 400; i++ {
			switch r.Intn(10) {
			case 0:
				closure(Time(i), 0) // ascending, with ties below
			case 1:
				event(Time(i), 0)
			case 2:
				closure(Time(i), 0)
				typed(r.Intn(nRuns), Time(i), 0)
				header(Time(i), 0)
				event(Time(i), 0)
			case 3:
				closure(Time(r.Intn(600)), 0) // anywhere
			case 4:
				typed(r.Intn(nRuns), Time(i+r.Intn(3)*10), 0)
			case 5:
				header(Time(r.Intn(600)), 0) // anywhere
			case 6:
				header(Time(i+r.Intn(3)*10), 0)
			case 7:
				event(Time(r.Intn(600)), 0) // anywhere
			case 8:
				ticker(1)
			default:
				if r.Intn(8) == 0 {
					sorted(Time(i), 0)
				} else {
					spawn(Time(i), 0)
				}
			}
		}
		for _, until := range []Time{-1, 0, 150, 151, 420, 1 << 40} {
			log = append(log, -1, Time(s.Run(until)), Time(s.Pending()))
			spawn(s.Now()+Time(r.Intn(20))-10, 0)
		}
		log = append(log, Time(s.Pending()))
		return log, batches
	}
	for seed := int64(1); seed <= 20; seed++ {
		e := &typedEngine{Engine: &Engine{}}
		for k := 0; k < nRuns; k++ {
			e.runs = append(e.runs, &testRun{})
		}
		want, _ := drive(&refEngine{}, seed)
		got, batches := drive(e, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: log entry %d is %d, want %d", seed, i, got[i], want[i])
			}
		}
		for i, b := range batches {
			if !reflect.DeepEqual(b.hdrs, b.orig) {
				t.Fatalf("seed %d: sorted batch %d was written to", seed, i)
			}
		}
	}
}

// TestEngineCountsTypedEvents pins that Pending and Run's return count
// typed packet events and header events: an intra-cluster packet crosses
// three switches, each a departure and an arrival event, and a sorted
// injection or a header event is one pending event per header until it
// runs.
func TestEngineCountsTypedEvents(t *testing.T) {
	eng, f, topo := newTestFabric(t)
	src, dst := pickPair(t, topo, topology.IntraCluster)
	inject(f, src, dst, 1000)
	if n := eng.Pending(); n != 1 {
		t.Fatalf("pending %d after inject, want the first departure", n)
	}
	if n := eng.Run(Second); n != 6 {
		t.Fatalf("ran %d events for a 3-switch path, want 6", n)
	}
	hdr := packet.Header{Key: packet.FlowKey{Src: topo.Addr(src), Dst: topo.Addr(dst), Proto: packet.TCP}, Size: 1000}
	hdrs := []packet.Header{hdr, hdr, hdr}
	f.InjectSorted(hdrs, eng.Now())
	if n := eng.Pending(); n != 3 {
		t.Fatalf("pending %d after a 3-header sorted injection", n)
	}
	if n := eng.Run(eng.Now() + Second); n != 3+3*6 {
		t.Fatalf("ran %d events, want 3 injections and 18 hop events", n)
	}
	if eng.Pending() != 0 || f.Sink(dst).Packets != 4 {
		t.Fatalf("pending %d, delivered %d after drain", eng.Pending(), f.Sink(dst).Packets)
	}
	eng.AfterHeader(Millisecond, hdr)
	eng.AfterHeader(-Millisecond, hdr) // clamped to now
	if n := eng.Pending(); n != 2 {
		t.Fatalf("pending %d after 2 header events", n)
	}
	if n := eng.Run(eng.Now() + Second); n != 2+2*6 {
		t.Fatalf("ran %d events, want 2 header events and 12 hop events", n)
	}
	if eng.Pending() != 0 || f.Sink(dst).Packets != 6 {
		t.Fatalf("pending %d, delivered %d after drain", eng.Pending(), f.Sink(dst).Packets)
	}
}

// TestPeriodicQueuesStayBounded runs two same-period SampleOccupancy
// tickers beside two same-period At chains for 10⁵ periods. Interleaved
// periodic events always leave one queued behind the one in dispatch,
// which once kept a closure FIFO from ever draining, so it kept every
// dispatched tick for the whole run. Every queue's storage must stay
// bounded by the handful of events pending at any time.
func TestPeriodicQueuesStayBounded(t *testing.T) {
	eng, f, _ := newTestFabric(t)
	const periods, interval = 100_000, 10 * Microsecond
	ticks := 0
	for _, sw := range []*Switch{f.RSW(0), f.RSW(1)} {
		SampleOccupancy(eng, sw, interval, periods*interval, func(Time, int64) { ticks++ })
	}
	for k := 0; k < 2; k++ {
		var tick func()
		tick = func() {
			ticks++
			if eng.Now() < periods*interval {
				eng.At(eng.Now()+interval, tick)
			}
		}
		eng.At(interval, tick)
	}
	if n := eng.Run(periods * interval); n != 4*periods || ticks != 4*periods {
		t.Fatalf("ran %d events and %d ticks, want %d", n, ticks, 4*periods)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events pending after the last period", eng.Pending())
	}
	if c := cap(eng.evs); c > 8 {
		t.Errorf("event heap capacity %d for 4 pending events", c)
	}
	if c := cap(eng.fns); c > 4 {
		t.Errorf("At slab capacity %d for 2 pending closures", c)
	}
	if c := cap(eng.tickers); c > 2 {
		t.Errorf("ticker slab capacity %d for 2 tickers", c)
	}
}
