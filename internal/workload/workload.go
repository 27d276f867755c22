// Package workload provides the machinery shared by all service traffic
// generators: the packet collector interface, connection bookkeeping, and
// message-to-packet translation (segmentation, delayed ACKs, microsecond
// burst pacing).
//
// Generators synthesize what a port mirror of one monitored host would
// capture (§3.3.2): the complete bidirectional packet-header stream of
// that host. Remote peers are not simulated end-to-end — their packets
// toward the monitored host are synthesized locally with realistic
// timing. This mirrors the paper's methodology, where all per-packet
// analyses are computed from single-host traces.
package workload

import (
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// Collector consumes a time-ordered stream of packet headers. Analyses,
// trace writers, and sampling agents all implement Collector.
type Collector interface {
	Packet(h packet.Header)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(h packet.Header)

// Packet implements Collector.
func (f CollectorFunc) Packet(h packet.Header) { f(h) }

// BatchCollector consumes packet headers a batch at a time. Batches
// preserve stream order: concatenating them yields exactly the sequence
// the per-packet Collector interface would have seen. Consumers must not
// retain the slice — it is a reused slab overwritten after the call.
type BatchCollector interface {
	Packets(hs []packet.Header)
}

// Batch is a reusable, capacity-stable header slab. The zero value is
// ready to use; the first Grow sets its capacity, and Reset keeps the
// backing array so steady-state refills never allocate.
type Batch []packet.Header

// Reset empties the batch, retaining capacity.
func (b *Batch) Reset() { *b = (*b)[:0] }

// Append adds one header.
func (b *Batch) Append(h packet.Header) { *b = append(*b, h) }

// Full reports whether the batch has reached capacity n.
func (b Batch) Full(n int) bool { return len(b) >= n }

// Fanout duplicates the stream to several collectors.
type Fanout []Collector

// Packet implements Collector.
func (f Fanout) Packet(h packet.Header) {
	for _, c := range f {
		c.Packet(h)
	}
}

// Packets implements BatchCollector: collectors that understand batches
// get the whole slab in one call; legacy collectors get a per-header loop.
func (f Fanout) Packets(hs []packet.Header) {
	for _, c := range f {
		if bc, ok := c.(BatchCollector); ok {
			bc.Packets(hs)
		} else {
			for _, h := range hs {
				c.Packet(h)
			}
		}
	}
}

// Batched adapts a Collector to the BatchCollector interface. Collectors
// that already implement BatchCollector are returned as-is; others get a
// per-header loop shim, so external per-packet collectors keep working on
// the batched path.
func Batched(c Collector) BatchCollector {
	if bc, ok := c.(BatchCollector); ok {
		return bc
	}
	return batchShim{c}
}

type batchShim struct{ c Collector }

func (s batchShim) Packets(hs []packet.Header) {
	for _, h := range hs {
		s.c.Packet(h)
	}
}

// Gen is the per-host trace generation context: a discrete-event engine,
// a deterministic random source, and an ordered emission path to the
// collector. Service models schedule application behaviour on it as
// typed events (Engine.AfterEvent) of their own kinds, from KindModel
// up, which the Gen hands to the model's handler (SetModelHandler); its
// own kinds run Poisson loops (each repeats one model event), handshakes
// and FIN exchanges. The engine's header handler is Emit: message trains
// and delayed ACKs are header events (Engine.AfterHeader). So neither a
// model step nor a packet costs a closure, and a warm Gen emits without
// allocating. Connections live in a slab that events name by index
// (Conn.ID). The emitted stream is in time order (see Emit). Reset
// reuses a Gen, its engine and its slabs for another host.
type Gen struct {
	Eng  *netsim.Engine
	R    *rng.Source
	Topo *topology.Topology
	Host topology.HostID

	sink      BatchCollector
	batch     Batch
	nextPort  uint16
	emitted   int64
	batches   int64
	lastEmit  netsim.Time
	reordered int64

	model  func(netsim.Event) // runs the model's kinds
	loops  []loop             // Poisson loops by index
	conns  []*Conn            // connection slab; conns[:nconns] are live
	nconns int
}

// loop is one Poisson loop: the model's event ev runs with exponential
// gaps of mean ns.
type loop struct {
	mean float64
	ev   netsim.Event
}

// The Gen's own event kinds. A names a Poisson loop or a connection.
const (
	kindPoisson  uint8 = iota // run loops[A] and schedule its next tick
	kindOpened                // outbound handshake of conn A completes
	kindInOpened              // inbound handshake of conn A completes
	kindFinAck                // the peer's FIN and the last ACK of conn A
	kindClose                 // close conn A

	// KindModel is the first event kind a service model may use; the
	// Gen passes every event of a kind from KindModel up to the model's
	// handler.
	KindModel
)

// genBatchSize is the emission slab capacity: large enough to amortize
// fanout dispatch over hundreds of headers, small enough that the slab
// stays L1/L2-resident (512 × 26-byte headers ≈ 16 KiB of payload).
const genBatchSize = 512

// NewGen creates a generation context for monitored host h.
func NewGen(topo *topology.Topology, h topology.HostID, seed uint64, sink Collector) *Gen {
	g := &Gen{
		Eng:   &netsim.Engine{},
		R:     new(rng.Source),
		Topo:  topo,
		batch: make(Batch, 0, genBatchSize),
	}
	g.Eng.SetHeaderHandler(g.Emit)
	g.Eng.SetEventHandler(g.handle)
	g.Reset(h, seed, sink)
	return g
}

// Reset makes g a fresh generation context for host h, as NewGen would,
// keeping its engine's queues, its slabs and its model handler. The
// Conns it handed out before are reused: nothing may hold one across a
// Reset.
func (g *Gen) Reset(h topology.HostID, seed uint64, sink Collector) {
	g.Eng.Reset()
	g.R.Seed(seed)
	g.Host, g.sink = h, Batched(sink)
	g.batch.Reset()
	g.nextPort = 32768
	g.emitted, g.batches, g.lastEmit, g.reordered = 0, 0, 0, 0
	g.loops, g.nconns = g.loops[:0], 0
}

// SetModelHandler installs fn as the handler of the model's event kinds
// (KindModel and up).
func (g *Gen) SetModelHandler(fn func(netsim.Event)) { g.model = fn }

// handle is the engine's event handler.
func (g *Gen) handle(ev netsim.Event) {
	if ev.Kind >= KindModel {
		g.model(ev)
		return
	}
	if ev.Kind == kindPoisson {
		l := g.loops[ev.A]
		g.model(l.ev)
		g.Eng.AfterEvent(netsim.Time(g.R.Exp()*l.mean), ev)
		return
	}
	c := g.conns[ev.A]
	switch ev.Kind {
	case kindOpened:
		g.Emit(packet.Header{Key: c.Key.Reverse(), Size: 74, Flags: packet.FlagSYN | packet.FlagACK})
		g.Emit(packet.Header{Key: c.Key, Size: packet.ACKSize, Flags: packet.FlagACK})
	case kindInOpened:
		g.Emit(packet.Header{Key: c.Key.Reverse(), Size: packet.ACKSize, Flags: packet.FlagACK})
	case kindFinAck:
		g.Emit(packet.Header{Key: c.Key.Reverse(), Size: packet.ACKSize, Flags: packet.FlagFIN | packet.FlagACK})
		g.Emit(packet.Header{Key: c.Key, Size: packet.ACKSize, Flags: packet.FlagACK})
	case kindClose:
		c.Close()
	}
}

// Run executes the scheduled behaviour until dur, then flushes the
// emission batch so collectors have seen every header when Run returns.
func (g *Gen) Run(dur netsim.Time) {
	g.Eng.Run(dur)
	g.Flush()
}

// Flush hands any buffered headers to the collector. Run calls it
// automatically; custom drivers that inspect collectors mid-run must
// flush first.
func (g *Gen) Flush() {
	if len(g.batch) > 0 {
		g.batches++
		g.sink.Packets(g.batch)
		g.batch.Reset()
	}
}

// Emitted returns the number of packets delivered to the collector.
func (g *Gen) Emitted() int64 { return g.emitted }

// Batches returns the number of slabs handed to the collector — the
// batched-dispatch amortization the observability layer reports.
func (g *Gen) Batches() int64 { return g.batches }

// Emit delivers one raw header at the current engine time, stamping its
// Time field; service models normally use Conn helpers, and Emit is the
// low-level path for custom generators (e.g. literature baselines). It
// buffers the header for batched delivery. Emission is monotone because
// the engine executes events in time order; the guard clamps any
// same-cause microsecond jitter that would run backwards. Buffering
// never changes what the collector observes — headers arrive in the same
// order, already timestamped — it only defers the handoff by up to one
// batch.
func (g *Gen) Emit(h packet.Header) {
	h.Time = g.Eng.Now()
	if h.Time < g.lastEmit {
		h.Time = g.lastEmit
		g.reordered++
	}
	g.lastEmit = h.Time
	g.emitted++
	g.batch.Append(h)
	if g.batch.Full(genBatchSize) {
		g.batches++
		g.sink.Packets(g.batch)
		g.batch.Reset()
	}
}

// AllocPort returns a fresh ephemeral source port.
func (g *Gen) AllocPort() uint16 {
	p := g.nextPort
	g.nextPort++
	if g.nextPort < 32768 {
		g.nextPort = 32768
	}
	return p
}

// Conn is one transport connection between the monitored host and a peer,
// viewed from the monitored host: Key.Src is always the monitored host.
type Conn struct {
	Key    packet.FlowKey
	Peer   topology.HostID
	g      *Gen
	id     int32
	closed bool
}

// ID returns c's index in its Gen's connection slab (see Gen.Conn).
func (c *Conn) ID() int32 { return c.id }

// Conn returns the connection whose ID is id.
func (g *Gen) Conn(id int32) *Conn { return g.conns[id] }

// NewConn creates a connection to peer on the given destination port.
// If handshake is true a SYN/SYN-ACK exchange is emitted at the current
// time (an ephemeral flow); otherwise the connection is considered
// pre-established (a pooled connection from before the capture began).
func (g *Gen) NewConn(peer topology.HostID, dstPort uint16, handshake bool) *Conn {
	return g.newConn(peer, dstPort, false, handshake)
}

// NewInboundConn creates a connection initiated by the peer (the SYN
// arrives from the peer). Key.Src remains the monitored host for
// bookkeeping; emitted packets are direction-correct.
func (g *Gen) NewInboundConn(peer topology.HostID, dstPort uint16, handshake bool) *Conn {
	return g.newConn(peer, dstPort, true, handshake)
}

// newConn takes the next connection of the slab for NewConn or
// NewInboundConn.
func (g *Gen) newConn(peer topology.HostID, port uint16, inbound, handshake bool) *Conn {
	if g.nconns == len(g.conns) {
		g.conns = append(g.conns, new(Conn))
	}
	c := g.conns[g.nconns]
	*c = Conn{Key: packet.FlowKey{
		Src:     g.Topo.Addr(g.Host),
		Dst:     g.Topo.Addr(peer),
		SrcPort: g.AllocPort(),
		DstPort: port,
		Proto:   packet.TCP,
	}, Peer: peer, g: g, id: int32(g.nconns)}
	g.nconns++
	if inbound {
		c.Key.SrcPort, c.Key.DstPort = port, c.Key.SrcPort
	}
	switch {
	case !handshake:
	case inbound:
		g.Emit(packet.Header{Key: c.Key.Reverse(), Size: 74, Flags: packet.FlagSYN})
		g.Emit(packet.Header{Key: c.Key, Size: 74, Flags: packet.FlagSYN | packet.FlagACK})
		g.Eng.AfterEvent(g.RTT(peer), netsim.Event{Kind: kindInOpened, A: c.id})
	default:
		g.Emit(packet.Header{Key: c.Key, Size: 74, Flags: packet.FlagSYN})
		g.Eng.AfterEvent(g.RTT(peer), netsim.Event{Kind: kindOpened, A: c.id})
	}
	return c
}

// Close emits a FIN exchange at the current time.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	g := c.g
	g.Emit(packet.Header{Key: c.Key, Size: packet.ACKSize, Flags: packet.FlagFIN | packet.FlagACK})
	g.Eng.AfterEvent(g.RTT(c.Peer), netsim.Event{Kind: kindFinAck, A: c.id})
}

// CloseAfter schedules Close d after the current time.
func (c *Conn) CloseAfter(d netsim.Time) {
	c.g.Eng.AfterEvent(d, netsim.Event{Kind: kindClose, A: c.id})
}

// RTT returns a plausible round-trip time to peer based on locality, with
// jitter, for service models that schedule responses.
func (g *Gen) RTT(peer topology.HostID) netsim.Time {
	var base netsim.Time
	switch g.Topo.Locality(g.Host, peer) {
	case topology.SameHost, topology.IntraRack:
		base = 40 * netsim.Microsecond
	case topology.IntraCluster:
		base = 80 * netsim.Microsecond
	case topology.IntraDatacenter:
		base = 150 * netsim.Microsecond
	default:
		base = 2 * netsim.Millisecond
	}
	jitter := netsim.Time(g.R.Float64() * float64(base) * 0.5)
	return base + jitter
}

const (
	mss         = 1448 // TCP payload per full segment
	segOverhead = 66   // Ethernet+IP+TCP header bytes on the wire
)

// SendMsg transmits an application message of size bytes from the
// monitored host on c, segmenting into MTU-sized packets paced at
// line-rate-like microsecond gaps, with delayed ACKs synthesized from the
// peer. Flows are therefore internally bursty: a message is a
// millisecond-scale packet train followed by silence (§5.1).
func (c *Conn) SendMsg(bytes int) {
	c.g.message(c, bytes, false)
}

// RecvMsg is SendMsg in the opposite direction: the peer transmits,
// the monitored host ACKs.
func (c *Conn) RecvMsg(bytes int) {
	c.g.message(c, bytes, true)
}

// message emits the packet train for one application message.
// If inbound, data flows peer→host and ACKs host→peer. Each segment and
// each delayed ACK is one header event, which takes one sequence number
// when scheduled, as an After call does.
func (g *Gen) message(c *Conn, bytes int, inbound bool) {
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
		size := uint32(pl + segOverhead)
		flags := packet.FlagACK
		if remaining <= mss {
			flags |= packet.FlagPSH
		}
		g.Eng.AfterHeader(t, packet.Header{Key: dataKey, Size: size, Flags: flags})
		seg++
		// Delayed ACK: one per two segments, and one for the tail.
		if seg%2 == 0 || remaining <= mss {
			ackAt := t + g.RTT(c.Peer)/2
			g.Eng.AfterHeader(ackAt, packet.Header{Key: ackKey, Size: packet.ACKSize, Flags: packet.FlagACK})
		}
		// Microsecond pacing between segments of a burst, with a small
		// random component so packet trains are not perfectly regular.
		t += netsim.Time(1200 + g.R.Intn(800))
	}
}

// Poisson runs the model's event ev repeatedly, ratePerSec times a second
// on average with exponential gaps, until the engine stops. ratePerSec
// <= 0 schedules nothing.
func (g *Gen) Poisson(ratePerSec float64, ev netsim.Event) {
	if ratePerSec <= 0 {
		return
	}
	mean := float64(netsim.Second) / ratePerSec
	g.loops = append(g.loops, loop{mean: mean, ev: ev})
	g.Eng.AfterEvent(netsim.Time(g.R.Exp()*mean), netsim.Event{Kind: kindPoisson, A: int32(len(g.loops) - 1)})
}
