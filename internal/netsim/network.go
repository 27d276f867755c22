package netsim

import (
	"fmt"

	"fbdcnet/internal/packet"
	"fbdcnet/internal/telemetry"
)

// Packet is a unit of traffic moving through the simulated network.
//
// Lifetime: the fabric takes packets from its engine's free list and
// returns them there where they are disposed of (sink delivery, buffer
// drop, fault drop), after the hooks have returned. A Node or hook must
// not keep a *Packet after the Receive, OnPacket, OnDrop or OnFaultDrop
// call that was handed it returns; copy Hdr instead.
type Packet struct {
	Hdr packet.Header
	// Tries counts delivery attempts: 0 for the first transmission,
	// incremented by the fault layer on each retransmission.
	Tries uint8
	// Rec, when non-nil, is the in-band telemetry path record this
	// sampled packet carries: each switch appends a hop, and whichever
	// element disposes of the packet (sink delivery, buffer drop, fault)
	// finalizes it with the terminal reason code. Nil for unsampled
	// packets — every telemetry touch is a nil check on this field.
	Rec *telemetry.PathRecord
	// hops[next:nhops] is the remaining sequence of (switch, egress
	// port) steps of a fabric-routed packet.
	hops        [maxHops]hop
	next, nhops uint8
}

// maxHops is the longest fabric path: RSW, CSW, FC, DCR, site agg,
// backbone, site agg, DCR, FC, CSW, RSW.
const maxHops = 11

type hop struct {
	sw   *Switch
	port int32
}

// addHop appends a step to p's path.
func (p *Packet) addHop(sw *Switch, port int) {
	p.hops[p.nhops] = hop{sw: sw, port: int32(port)}
	p.nhops++
}

// Node receives packets. Implementations: Switch, Sink.
type Node interface {
	// Receive delivers p to the node; port is the node-local egress port
	// the packet should leave through next (ignored by sinks). The node
	// must not keep p after Receive returns unless it forwards it (see
	// Packet).
	Receive(p *Packet, port int)
	// Name identifies the node in counters and errors.
	Name() string
}

// Link is a unidirectional wire with a fixed rate and propagation delay.
type Link struct {
	RateBps int64 // bits per second
	Delay   Time  // propagation delay

	bytesTx int64
}

// TxTime returns the serialization time of size bytes on this link.
func (l *Link) TxTime(size uint32) Time {
	return Time(int64(size) * 8 * Second / l.RateBps)
}

// BytesTx returns cumulative bytes transmitted over the link.
func (l *Link) BytesTx() int64 { return l.bytesTx }

// Utilization returns the average utilization over a window of length d.
func (l *Link) Utilization(d Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(l.bytesTx*8) / (float64(l.RateBps) * float64(d) / float64(Second))
}

// ResetCounters zeroes the transmit counter (e.g. between measurement
// windows).
func (l *Link) ResetCounters() { l.bytesTx = 0 }

// Port is one switch egress: a FIFO queue served at the attached link's
// rate, drawing buffer space from the switch's shared pool.
type Port struct {
	Link      *Link
	Peer      Node // node at the far end
	PeerPort  int  // egress port the packet uses at the peer (pre-routed)
	busyUntil Time
	queued    int64 // bytes currently queued on this port
	drops     int64
	forwarded int64
	down      bool // link fault: packets entering or departing are lost

	sw      *Switch
	departs portRun // packets leaving this egress, in departure order
	arrives portRun // departed packets reaching Peer, in arrival order
}

// portRun is one port's typed event run: its departures, or its
// arrivals at the peer. Both are monotone in time: a departure is
// max(now, busyUntil) + tx, and an arrival is a departure plus the
// link's fixed delay.
type portRun struct {
	pktRun
	pt     *Port
	arrive bool
}

// schedule queues p's event on the run at time at.
func (r *portRun) schedule(at Time, p *Packet) { r.push(r.pt.sw.eng, r, at, p) }

func (r *portRun) fire(e *Engine) {
	p := r.take(e)
	if r.arrive {
		deliver(r.pt.Peer, p, r.pt.PeerPort)
		return
	}
	r.pt.sw.depart(r.pt, p)
}

// SetDown marks the port's link as failed (true) or recovered (false).
// While down, packets routed to the port — including ones already queued
// — are handed to the switch's fault-drop path instead of transmitted.
func (p *Port) SetDown(down bool) { p.down = down }

// Drops returns the number of packets dropped at this egress.
func (p *Port) Drops() int64 { return p.drops }

// Forwarded returns the number of packets transmitted from this egress.
func (p *Port) Forwarded() int64 { return p.forwarded }

// Switch is an output-queued switch with a shared egress buffer pool:
// a packet is dropped if the pool cannot hold it, regardless of which
// port it is queued on. This is the shallow-shared-buffer commodity
// design whose occupancy §6.3 measures.
type Switch struct {
	eng        *Engine
	name       string
	BufBytes   int64 // shared pool capacity
	used       int64 // bytes currently buffered across all ports
	ports      []*Port
	enqueues   int64 // packets accepted into the shared buffer
	dropTotal  int64
	down       bool  // switch fault: every received or queued packet is lost
	faultDrops int64 // packets lost to a down switch or port

	// OnDrop, if set, is invoked for each dropped packet. It must not
	// keep p after it returns (see Packet).
	OnDrop func(p *Packet)
	// OnFaultDrop, if set, is invoked for each packet lost to a fault
	// (down switch or down link) — the hook the fabric's retransmission
	// accounting attaches to. It must not keep p after it returns.
	OnFaultDrop func(p *Packet)

	// In-band telemetry registration (Fabric.AttachTelemetry). telem is
	// nil on untraced fabrics; sampled packets cannot then exist, so the
	// recording paths below stay behind p.Rec nil checks.
	telem     *telemetry.Sink
	telemID   uint32
	telemTier telemetry.Tier
}

// setTelemetry registers the switch's identity with an attached sink.
func (s *Switch) setTelemetry(ts *telemetry.Sink, tier telemetry.Tier) {
	s.telem = ts
	s.telemTier = tier
	s.telemID = ts.RegisterSwitch(s.name, tier, len(s.ports))
}

// faultReason maps the down flags to the telemetry reason code at a
// fault drop: a down switch wins over a down link.
func (s *Switch) faultReason() telemetry.Reason {
	if s.down {
		return telemetry.ReasonSwitchDown
	}
	return telemetry.ReasonLinkDown
}

// NewSwitch creates a switch with the given shared buffer capacity.
func NewSwitch(eng *Engine, name string, bufBytes int64) *Switch {
	return &Switch{eng: eng, name: name, BufBytes: bufBytes}
}

// Name implements Node.
func (s *Switch) Name() string { return s.name }

// AddPort attaches an egress port and returns its index.
func (s *Switch) AddPort(link *Link, peer Node) int {
	pt := &Port{Link: link, Peer: peer, sw: s}
	pt.departs = portRun{pt: pt}
	pt.arrives = portRun{pt: pt, arrive: true}
	s.ports = append(s.ports, pt)
	return len(s.ports) - 1
}

// Port returns the port at index i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// NumPorts returns the number of egress ports.
func (s *Switch) NumPorts() int { return len(s.ports) }

// Occupancy returns the bytes currently held in the shared buffer.
func (s *Switch) Occupancy() int64 { return s.used }

// Drops returns the total packets dropped across all ports.
func (s *Switch) Drops() int64 { return s.dropTotal }

// Enqueues returns the packets accepted into the shared buffer (the
// complement of Drops and FaultDrops on the receive path).
func (s *Switch) Enqueues() int64 { return s.enqueues }

// Forwarded returns the packets transmitted across all egress ports.
func (s *Switch) Forwarded() int64 {
	var n int64
	for _, p := range s.ports {
		n += p.forwarded
	}
	return n
}

// FaultDrops returns the packets lost to switch or link faults here.
func (s *Switch) FaultDrops() int64 { return s.faultDrops }

// SetDown fails (true) or recovers (false) the whole switch. While down,
// every packet received — and every packet already queued when the fault
// fires, at its departure instant — is lost through the fault-drop path.
func (s *Switch) SetDown(down bool) { s.down = down }

// faultDrop loses p to a fault, notifies the fault hook and disposes of
// the packet.
func (s *Switch) faultDrop(p *Packet) {
	s.faultDrops++
	if s.OnFaultDrop != nil {
		s.OnFaultDrop(p)
	}
	s.eng.freePacket(p)
}

// Receive implements Node: queue the packet on egress port, or drop it if
// the shared buffer is exhausted.
func (s *Switch) Receive(p *Packet, port int) {
	if port < 0 || port >= len(s.ports) {
		panic(fmt.Sprintf("netsim: %s: bad egress port %d", s.name, port))
	}
	pt := s.ports[port]
	if s.down || pt.down {
		if p.Rec != nil {
			reason := s.faultReason()
			now := int64(s.eng.Now())
			p.Rec.AddHop(s.telemID, s.telemTier, uint16(port), reason, s.used, 0, now)
			s.telem.Finish(p.Rec, reason, now)
			p.Rec = nil
		}
		s.faultDrop(p)
		return
	}
	size := int64(p.Hdr.Size)
	if s.used+size > s.BufBytes {
		pt.drops++
		s.dropTotal++
		if p.Rec != nil {
			now := int64(s.eng.Now())
			p.Rec.AddHop(s.telemID, s.telemTier, uint16(port), telemetry.ReasonBufferDrop, s.used, 0, now)
			s.telem.Finish(p.Rec, telemetry.ReasonBufferDrop, now)
			p.Rec = nil
		}
		if s.OnDrop != nil {
			s.OnDrop(p)
		}
		s.eng.freePacket(p)
		return
	}
	start := s.eng.Now()
	if pt.busyUntil > start {
		start = pt.busyUntil
	}
	if p.Rec != nil {
		// Queue depth is the shared-pool usage ahead of this packet;
		// queuing delay is the wait behind earlier departures on the port.
		p.Rec.AddHop(s.telemID, s.telemTier, uint16(port), telemetry.ReasonForwarded,
			s.used, int64(start-s.eng.Now()), int64(s.eng.Now()))
	}
	s.used += size
	pt.queued += size
	s.enqueues++
	depart := start + pt.Link.TxTime(p.Hdr.Size)
	pt.busyUntil = depart
	pt.departs.schedule(depart, p)
}

// depart is p's departure event from egress pt: the packet leaves the
// shared buffer and goes on the wire, arriving at the peer one link
// delay later.
func (s *Switch) depart(pt *Port, p *Packet) {
	size := int64(p.Hdr.Size)
	s.used -= size
	pt.queued -= size
	// A fault that fired while the packet sat in the queue loses it at
	// its departure instant: the buffer is released but nothing goes on
	// the wire.
	if s.down || pt.down {
		if p.Rec != nil {
			reason := s.faultReason()
			p.Rec.FailLastHop(reason)
			s.telem.Finish(p.Rec, reason, int64(s.eng.Now()))
			p.Rec = nil
		}
		s.faultDrop(p)
		return
	}
	pt.forwarded++
	pt.Link.bytesTx += size
	pt.arrives.schedule(s.eng.Now()+pt.Link.Delay, p)
}

// deliver advances a packet along its precomputed hop list if it has one,
// otherwise uses the port argument.
func deliver(n Node, p *Packet, port int) {
	if p.next < p.nhops {
		h := p.hops[p.next]
		p.next++
		h.sw.Receive(p, int(h.port))
		return
	}
	n.Receive(p, port)
}

// Sink absorbs packets at the edge of the simulated network and counts
// them; it stands in for the receiving host's NIC.
type Sink struct {
	name    string
	eng     *Engine // a fabric's clock: stamps records and batches at delivery
	Packets int64
	Bytes   int64
	// OnPacket, if set, is invoked for each delivered packet. It must not
	// keep p after it returns (see Packet).
	OnPacket func(p *Packet)
	// Telem, if set, finalizes the path records of sampled packets at
	// delivery (set by Fabric.AttachTelemetry).
	Telem *telemetry.Sink
	// OnBatch, if set, receives delivered headers batched at
	// departure-time boundaries: the slab is handed over whenever a
	// delivery arrives at a later engine time than the buffered ones, so
	// concatenated batches preserve exact delivery-time order. Call Flush
	// after the run to hand over the final batch. The slab is reused;
	// consumers must not retain it.
	OnBatch func(hs []packet.Header)

	batch   []packet.Header
	batchAt Time // delivery time of the buffered headers
}

// NewSink creates a named sink.
func NewSink(name string) *Sink { return &Sink{name: name} }

// Name implements Node.
func (s *Sink) Name() string { return s.name }

// Receive implements Node. With an engine attached, the delivered
// packet is disposed of into its free list once the hooks return.
func (s *Sink) Receive(p *Packet, _ int) {
	s.Packets++
	s.Bytes += int64(p.Hdr.Size)
	if p.Rec != nil && s.Telem != nil {
		now := int64(0)
		if s.eng != nil {
			now = int64(s.eng.Now())
		}
		s.Telem.Finish(p.Rec, telemetry.ReasonDelivered, now)
		p.Rec = nil
	}
	if s.OnPacket != nil {
		s.OnPacket(p)
	}
	if s.OnBatch != nil {
		now := Time(0)
		if s.eng != nil {
			now = s.eng.Now()
		}
		if len(s.batch) > 0 && now != s.batchAt {
			s.OnBatch(s.batch)
			s.batch = s.batch[:0]
		}
		s.batchAt = now
		s.batch = append(s.batch, p.Hdr)
	}
	if s.eng != nil {
		s.eng.freePacket(p)
	}
}

// Flush hands any buffered OnBatch headers over; call once after the
// engine run completes.
func (s *Sink) Flush() {
	if s.OnBatch != nil && len(s.batch) > 0 {
		s.OnBatch(s.batch)
		s.batch = s.batch[:0]
	}
}
