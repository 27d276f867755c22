package netsim

import (
	"math/rand"
	"sort"
	"testing"
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
		e.After(0, func() { got = append(got, stamp{at: e.Now(), id: -1, ins: 1 << 30}) })
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
type refEngine struct {
	now Time
	seq uint64
	q   []event
}

func (r *refEngine) Now() Time { return r.now }

func (r *refEngine) At(t Time, fn func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.q = append(r.q, event{at: t, seq: r.seq, fn: fn})
}

func (r *refEngine) Run(until Time) int {
	n := 0
	for len(r.q) > 0 {
		m := 0
		for i := range r.q {
			if r.q[i].before(r.q[m]) {
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

// TestEngineRunQueueOrder checks that the FIFO run and the heap together
// dispatch in exactly the reference order. The program mixes an
// ascending up-front schedule (which fills the run), out-of-order and
// past-time inserts (which go to the heap), handlers that schedule
// more events at random delays, and Run calls that stop mid-queue.
func TestEngineRunQueueOrder(t *testing.T) {
	type scheduler interface {
		Now() Time
		At(Time, func())
		Run(Time) int
	}
	drive := func(s scheduler, seed int64) []Time {
		r := rand.New(rand.NewSource(seed))
		var log []Time
		id := 0
		var spawn func(at Time, depth int)
		spawn = func(at Time, depth int) {
			me := Time(id)
			id++
			s.At(at, func() {
				log = append(log, me, s.Now())
				for k := r.Intn(3); k > 0 && depth < 4; k-- {
					spawn(s.Now()+Time(r.Intn(6)*10-10), depth+1) // coarse delays: many ties
				}
			})
		}
		for i := 0; i < 400; i++ {
			switch r.Intn(4) {
			case 0, 1:
				spawn(Time(i), 0) // ascending, with ties below
			case 2:
				spawn(Time(i), 0)
				spawn(Time(i), 0)
			default:
				spawn(Time(r.Intn(600)), 0) // anywhere
			}
		}
		for _, until := range []Time{-1, 0, 150, 151, 420, 1 << 40} {
			log = append(log, -1, Time(s.Run(until)))
			spawn(s.Now()+Time(r.Intn(20))-10, 0)
		}
		return log
	}
	for seed := int64(1); seed <= 20; seed++ {
		var e Engine
		want := drive(&refEngine{}, seed)
		got := drive(&e, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: log entry %d is %d, want %d", seed, i, got[i], want[i])
			}
		}
		if e.Pending() != 1 {
			t.Fatalf("seed %d: pending %d, want the one event scheduled after the last Run", seed, e.Pending())
		}
	}
}
