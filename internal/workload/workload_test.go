package workload

import (
	"testing"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/topology"
)

type capture struct {
	hdrs []packet.Header
}

func (c *capture) Packet(h packet.Header) { c.hdrs = append(c.hdrs, h) }

func newTestGen(t *testing.T) (*Gen, *capture, *topology.Topology) {
	t.Helper()
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	cap := &capture{}
	g := NewGen(topo, 0, 42, cap)
	return g, cap, topo
}

func TestEmitMonotone(t *testing.T) {
	g, cap, _ := newTestGen(t)
	c := g.NewConn(5, 11211, false)
	g.Poisson(1000, func() { c.SendMsg(4000) })
	g.Run(2 * netsim.Second)
	if len(cap.hdrs) == 0 {
		t.Fatal("no packets generated")
	}
	for i := 1; i < len(cap.hdrs); i++ {
		if cap.hdrs[i].Time < cap.hdrs[i-1].Time {
			t.Fatalf("time went backwards at %d: %d < %d", i, cap.hdrs[i].Time, cap.hdrs[i-1].Time)
		}
	}
	if g.Emitted() != int64(len(cap.hdrs)) {
		t.Fatal("Emitted() mismatch")
	}
}

func TestHandshakeEmitsSYN(t *testing.T) {
	g, cap, _ := newTestGen(t)
	g.Eng.At(netsim.Second, func() {
		c := g.NewConn(3, 80, true)
		after(g, 10*netsim.Millisecond, func() { c.SendMsg(100) })
		c.CloseAfter(20 * netsim.Millisecond)
	})
	g.Run(2 * netsim.Second)

	var syn, synack, fin int
	for _, h := range cap.hdrs {
		if h.Flags&packet.FlagSYN != 0 {
			if h.Flags&packet.FlagACK != 0 {
				synack++
			} else {
				syn++
			}
		}
		if h.Flags&packet.FlagFIN != 0 {
			fin++
		}
	}
	if syn != 1 || synack != 1 {
		t.Fatalf("syn=%d synack=%d", syn, synack)
	}
	if fin != 2 {
		t.Fatalf("fin=%d, want 2", fin)
	}
}

func TestPooledConnNoSYN(t *testing.T) {
	g, cap, _ := newTestGen(t)
	c := g.NewConn(3, 11211, false)
	c.SendMsg(500)
	g.Run(netsim.Second)
	for _, h := range cap.hdrs {
		if h.SYN() {
			t.Fatal("pooled connection emitted a SYN")
		}
	}
}

func TestInboundConnDirection(t *testing.T) {
	g, cap, topo := newTestGen(t)
	c := g.NewInboundConn(3, 80, true)
	_ = c
	g.Run(netsim.Second)
	if len(cap.hdrs) < 2 {
		t.Fatal("no handshake emitted")
	}
	first := cap.hdrs[0]
	if !first.SYN() {
		t.Fatal("first packet should be the peer's SYN")
	}
	if first.Key.Src != topo.Addr(3) {
		t.Fatalf("inbound SYN has src %v, want peer addr", first.Key.Src)
	}
}

func TestSendMsgSegmentation(t *testing.T) {
	g, cap, topo := newTestGen(t)
	c := g.NewConn(3, 50010, false)
	c.SendMsg(3 * 1448) // exactly 3 full segments
	g.Run(netsim.Second)

	hostAddr := topo.Addr(0)
	var data, acks int
	var dataBytes int
	for _, h := range cap.hdrs {
		if h.Key.Src == hostAddr {
			data++
			dataBytes += int(h.Size) - segOverhead
		} else {
			acks++
			if h.Size != packet.ACKSize {
				t.Fatalf("ack size %d", h.Size)
			}
		}
	}
	if data != 3 {
		t.Fatalf("data packets = %d, want 3", data)
	}
	if dataBytes != 3*1448 {
		t.Fatalf("payload bytes = %d", dataBytes)
	}
	if acks != 2 { // one per two segments + tail, dedup: segs 2 and 3
		t.Fatalf("acks = %d, want 2", acks)
	}
}

func TestRecvMsgDirection(t *testing.T) {
	g, cap, topo := newTestGen(t)
	c := g.NewConn(3, 50010, false)
	c.RecvMsg(1448)
	g.Run(netsim.Second)
	hostAddr := topo.Addr(0)
	var inData, outAcks int
	for _, h := range cap.hdrs {
		if h.Key.Dst == hostAddr && h.Size > packet.ACKSize {
			inData++
		}
		if h.Key.Src == hostAddr && h.Size == packet.ACKSize {
			outAcks++
		}
	}
	if inData != 1 || outAcks != 1 {
		t.Fatalf("inData=%d outAcks=%d", inData, outAcks)
	}
}

func TestMsgNonPositiveBytes(t *testing.T) {
	g, cap, _ := newTestGen(t)
	c := g.NewConn(3, 50010, false)
	c.SendMsg(0)
	g.Run(netsim.Second)
	if len(cap.hdrs) == 0 {
		t.Fatal("zero-byte message emitted nothing")
	}
}

func TestRTTIncreasesWithDistance(t *testing.T) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	g := NewGen(topo, 0, 7, &capture{})
	// average over jitter
	avg := func(peer topology.HostID) float64 {
		total := 0.0
		for i := 0; i < 200; i++ {
			total += float64(g.RTT(peer))
		}
		return total / 200
	}
	// host 1 same rack; last host other site
	near := avg(1)
	far := avg(topology.HostID(topo.NumHosts() - 1))
	if near >= far {
		t.Fatalf("rtt near %v >= far %v", near, far)
	}
}

func TestPoissonRate(t *testing.T) {
	g, _, _ := newTestGen(t)
	n := 0
	g.Poisson(1000, func() { n++ })
	g.Run(10 * netsim.Second)
	if n < 9000 || n > 11000 {
		t.Fatalf("poisson fired %d times, want ~10000", n)
	}
}

func TestPoissonZeroRate(t *testing.T) {
	g, _, _ := newTestGen(t)
	g.Poisson(0, func() { t.Fatal("zero-rate poisson fired") })
	g.Run(netsim.Second)
}

func TestAllocPortAdvances(t *testing.T) {
	g, _, _ := newTestGen(t)
	a, b := g.AllocPort(), g.AllocPort()
	if a == b {
		t.Fatal("duplicate ports")
	}
	if a < 32768 || b < 32768 {
		t.Fatal("ephemeral ports below 32768")
	}
}

func TestFanout(t *testing.T) {
	a, b := &capture{}, &capture{}
	f := Fanout{a, b}
	f.Packet(packet.Header{Size: 100})
	if len(a.hdrs) != 1 || len(b.hdrs) != 1 {
		t.Fatal("fanout did not duplicate")
	}
}

func TestCollectorFunc(t *testing.T) {
	n := 0
	CollectorFunc(func(packet.Header) { n++ }).Packet(packet.Header{})
	if n != 1 {
		t.Fatal("CollectorFunc not invoked")
	}
}

func TestDeterministicTrace(t *testing.T) {
	gen := func() []packet.Header {
		topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
		cap := &capture{}
		g := NewGen(topo, 2, 99, cap)
		c := g.NewConn(5, 11211, false)
		g.Poisson(500, func() { c.SendMsg(g.R.Intn(5000) + 1) })
		g.Run(netsim.Second)
		return cap.hdrs
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at packet %d", i)
		}
	}
}

// after schedules fn d after the current time: the closure form of a
// typed event.
func after(g *Gen, d netsim.Time, fn func()) { g.Eng.At(g.Eng.Now()+d, fn) }

// closureMessage is Gen.message as it was before header events: one
// After closure per segment and per delayed ACK. It is the oracle for
// the dispatch order of the typed path.
func (g *Gen) closureMessage(c *Conn, bytes int, inbound bool) {
	if bytes <= 0 {
		bytes = 1
	}
	dataKey, ackKey := c.Key, c.Key.Reverse()
	if inbound {
		dataKey, ackKey = ackKey, dataKey
	}
	t := netsim.Time(0)
	seg := 0
	for remaining := bytes; remaining > 0; remaining -= mss {
		pl := remaining
		if pl > mss {
			pl = mss
		}
		flags := packet.FlagACK
		if remaining <= mss {
			flags |= packet.FlagPSH
		}
		hdr := packet.Header{Key: dataKey, Size: uint32(pl + segOverhead), Flags: flags}
		after(g, t, func() { g.emit(hdr) })
		seg++
		if seg%2 == 0 || remaining <= mss {
			ackAt := t + g.rtt(c.Peer)/2
			after(g, ackAt, func() {
				g.emit(packet.Header{Key: ackKey, Size: packet.ACKSize, Flags: packet.FlagACK})
			})
		}
		t += netsim.Time(1200 + g.R.Intn(800))
	}
}

// TestMessageMatchesClosureSchedule runs one program twice, once with
// message trains as header events and once as After closures, and
// requires identical streams. The program interleaves trains on several
// connections with handshakes, FIN exchanges and raw emits scheduled as
// closures at coarse times, so header events tie with closures and with
// each other.
func TestMessageMatchesClosureSchedule(t *testing.T) {
	gen := func(closures bool) []packet.Header {
		topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
		cap := &capture{}
		g := NewGen(topo, 2, 7, cap)
		msg := func(c *Conn, bytes int, inbound bool) {
			if closures {
				g.closureMessage(c, bytes, inbound)
			} else {
				g.message(c, bytes, inbound)
			}
		}
		conns := []*Conn{g.NewConn(5, 11211, false), g.NewInboundConn(9, 80, false), g.NewConn(40, 50010, false)}
		g.Poisson(3000, func() {
			c := conns[g.R.Intn(len(conns))]
			msg(c, g.R.Intn(9000), g.R.Intn(2) == 0)
			// Coarse times: ties with the train's own segments and ACKs.
			after(g, netsim.Time(g.R.Intn(4))*2000, func() {
				g.Emit(packet.Header{Key: c.Key, Size: 99})
			})
			if g.R.Intn(10) == 0 {
				hc := g.NewConn(topology.HostID(g.R.Intn(topo.NumHosts())), 80, true)
				after(g, netsim.Time(g.R.Intn(3))*1000, func() {
					msg(hc, g.R.Intn(3000), false)
					hc.Close()
				})
			}
		})
		g.Run(netsim.Second / 2)
		return cap.hdrs
	}
	want, got := gen(true), gen(false)
	if len(want) < 10000 {
		t.Fatalf("program too light: %d packets", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("%d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packet %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// closurePoisson is Gen.Poisson as it was before typed events: each
// tick a closure that runs fn and schedules the next.
func (g *Gen) closurePoisson(ratePerSec float64, fn func()) {
	if ratePerSec <= 0 {
		return
	}
	mean := float64(netsim.Second) / ratePerSec
	var tick func()
	tick = func() {
		fn()
		after(g, netsim.Time(g.R.Exp()*mean), tick)
	}
	after(g, netsim.Time(g.R.Exp()*mean), tick)
}

// closureConn is NewConn or NewInboundConn with a handshake, its
// completion scheduled as a closure.
func (g *Gen) closureConn(peer topology.HostID, port uint16, inbound bool) *Conn {
	if inbound {
		c := g.NewInboundConn(peer, port, false)
		g.emit(packet.Header{Key: c.Key.Reverse(), Size: 74, Flags: packet.FlagSYN})
		g.emit(packet.Header{Key: c.Key, Size: 74, Flags: packet.FlagSYN | packet.FlagACK})
		after(g, g.rtt(peer), func() {
			g.emit(packet.Header{Key: c.Key.Reverse(), Size: packet.ACKSize, Flags: packet.FlagACK})
		})
		return c
	}
	c := g.NewConn(peer, port, false)
	g.emit(packet.Header{Key: c.Key, Size: 74, Flags: packet.FlagSYN})
	after(g, g.rtt(peer), func() {
		g.emit(packet.Header{Key: c.Key.Reverse(), Size: 74, Flags: packet.FlagSYN | packet.FlagACK})
		g.emit(packet.Header{Key: c.Key, Size: packet.ACKSize, Flags: packet.FlagACK})
	})
	return c
}

// closureClose is Close with the peer's FIN scheduled as a closure.
func (c *Conn) closureClose() {
	if c.closed {
		return
	}
	c.closed = true
	g := c.g
	g.emit(packet.Header{Key: c.Key, Size: packet.ACKSize, Flags: packet.FlagFIN | packet.FlagACK})
	after(g, g.rtt(c.Peer), func() {
		g.emit(packet.Header{Key: c.Key.Reverse(), Size: packet.ACKSize, Flags: packet.FlagFIN | packet.FlagACK})
		g.emit(packet.Header{Key: c.Key, Size: packet.ACKSize, Flags: packet.FlagACK})
	})
}

// TestGenEventsMatchClosureSchedule runs one program twice, once with
// the Gen's typed events (Poisson loops, handshakes, FIN exchanges,
// CloseAfter) and once with their closure forms, and requires identical
// streams and the same number of random draws (the generators end in the
// same state). Three Poisson loops at different rates tie with
// handshakes, closes and coarse-time closures; a Reset between two runs
// must give the stream of a fresh Gen.
func TestGenEventsMatchClosureSchedule(t *testing.T) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	program := func(g *Gen, closures bool) {
		poisson, conn := g.Poisson, func(peer topology.HostID, port uint16, in bool) *Conn {
			if in {
				return g.NewInboundConn(peer, port, true)
			}
			return g.NewConn(peer, port, true)
		}
		closeAfter := func(c *Conn, d netsim.Time) { c.CloseAfter(d) }
		if closures {
			poisson, conn = g.closurePoisson, g.closureConn
			closeAfter = func(c *Conn, d netsim.Time) { after(g, d, c.closureClose) }
		}
		pool := []*Conn{g.NewConn(5, 11211, false), g.NewInboundConn(9, 80, false)}
		poisson(2000, func() {
			c := pool[g.R.Intn(len(pool))]
			c.SendMsg(g.R.Intn(4000))
			after(g, netsim.Time(g.R.Intn(3))*1000, func() { g.Emit(packet.Header{Key: c.Key, Size: 99}) })
		})
		poisson(700, func() {
			c := conn(topology.HostID(g.R.Intn(topo.NumHosts())), 80, g.R.Bool(0.5))
			c.RecvMsg(g.R.Intn(2000))
			closeAfter(c, netsim.Time(g.R.Intn(3))*40*netsim.Microsecond)
		})
		poisson(300, func() {
			c := conn(topology.HostID(g.R.Intn(topo.NumHosts())), 443, false)
			if closures {
				c.closureClose()
			} else {
				c.Close()
			}
		})
		poisson(0, func() { t.Fatal("zero-rate loop ran") })
	}
	gen := func(g *Gen, closures bool) ([]packet.Header, Gen) {
		cap := &capture{}
		g.Reset(3, 11, cap)
		program(g, closures)
		g.Run(netsim.Second / 2)
		return cap.hdrs, *g
	}
	reused := NewGen(topo, 0, 1, &capture{})
	reused.Poisson(5000, func() { reused.NewConn(7, 80, true).CloseAfter(netsim.Millisecond) })
	reused.Run(netsim.Second / 10)
	for _, g := range []*Gen{NewGen(topo, 0, 1, &capture{}), reused} {
		want, wantG := gen(NewGen(topo, 0, 1, &capture{}), true)
		got, gotG := gen(g, false)
		if len(want) < 5000 {
			t.Fatalf("program too light: %d packets", len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("%d packets, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("packet %d: %+v, want %+v", i, got[i], want[i])
			}
		}
		if *gotG.R != *wantG.R || gotG.nextPort != wantG.nextPort || gotG.Eng.Now() != wantG.Eng.Now() {
			t.Fatal("generators end in different states")
		}
	}
}

// TestMessageZeroAlloc pins the generation hot path: once a Gen's queues
// and emission slab are warm, SendMsg and RecvMsg trains are emitted
// without allocating.
func TestMessageZeroAlloc(t *testing.T) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	var n int
	g := NewGen(topo, 0, 42, CollectorFunc(func(packet.Header) { n++ }))
	c := g.NewConn(5, 11211, false)
	round := func() {
		c.SendMsg(64 << 10)
		c.RecvMsg(32 << 10)
		c.SendMsg(300)
		g.Run(g.Eng.Now() + netsim.Second)
	}
	round()
	n = 0
	allocs := testing.AllocsPerRun(100, round)
	if n == 0 {
		t.Fatal("no packets emitted")
	}
	if allocs != 0 {
		t.Errorf("%.2f allocs per round of %d emitted packets, want 0", allocs, n/101)
	}
}
