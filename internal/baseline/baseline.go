// Package baseline implements the previously published datacenter
// workload models the paper contrasts against (Table 1): Benson et al.'s
// on/off packet arrivals with log-normal period lengths and bimodal
// ACK/MTU packet sizes [12, 13], Kandula et al.'s rack-heavy MapReduce
// locality [26], and Alizadeh et al.'s handful of concurrent large flows
// [8]. Running the same analyses over these generators makes every "our
// data differs from the literature" claim an executable A/B.
package baseline

import (
	"fbdcnet/internal/dist"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// OnOffParams configures the literature host model.
type OnOffParams struct {
	// OnPeriod and OffPeriod are the burst and silence lengths; the
	// literature reports log-normal fits at millisecond scale.
	OnPeriod  dist.Dist
	OffPeriod dist.Dist
	// PacketsPerSecOn is the arrival rate inside a burst.
	PacketsPerSecOn float64
	// MTUFrac is the fraction of full-size packets; the remainder are
	// ACK-size — the bimodal distribution of [12].
	MTUFrac float64
	// RackLocalFrac is the probability a packet stays in the rack
	// (50–80% in [12, 17]).
	RackLocalFrac float64
	// ConcurrentPeers bounds the destination set per burst (<5 large
	// flows in [8]).
	ConcurrentPeers int
}

// DefaultOnOffParams returns the literature-calibrated defaults.
func DefaultOnOffParams() OnOffParams {
	return OnOffParams{
		OnPeriod:        dist.LogNormalFromMedian(2.5, 1.0),  // ms
		OffPeriod:       dist.LogNormalFromMedian(12.0, 1.0), // ms
		PacketsPerSecOn: 40000,
		MTUFrac:         0.55,
		RackLocalFrac:   0.65,
		ConcurrentPeers: 4,
	}
}

// Generate synthesizes dur of literature-style traffic for host and
// feeds it to sink. The trace has the three signature properties the
// paper refutes for Facebook traffic: on/off arrivals, a bimodal packet
// size distribution, and rack-heavy locality with few concurrent peers.
func Generate(topo *topology.Topology, host topology.HostID, seed uint64, p OnOffParams, dur netsim.Time, sink workload.Collector) int64 {
	g := workload.NewGen(topo, host, seed, sink)
	self := topo.Host(host)
	rack := topo.Racks[self.Rack]
	cluster := topo.Clusters[self.Cluster]

	// A fixed, small peer set: a few rack mates plus a couple of
	// cluster-remote hosts.
	var peers []topology.HostID
	for i := 0; i < int(rack.NumHosts); i++ {
		if h := rack.Host(i); h != host && len(peers) < p.ConcurrentPeers {
			peers = append(peers, h)
		}
	}
	for _, r := range cluster.Racks {
		if r == rack.ID {
			continue
		}
		peers = append(peers, topo.Racks[r].FirstHost)
		if len(peers) >= 2*p.ConcurrentPeers {
			break
		}
	}
	conns := make([]*workload.Conn, len(peers))
	rackLocal := make([]bool, len(peers))
	for i, peer := range peers {
		conns[i] = g.NewConn(peer, 50010, false)
		rackLocal[i] = topo.HostRack(peer) == self.Rack
	}

	gap := netsim.Time(float64(netsim.Second) / p.PacketsPerSecOn)
	// pickIdx selects a destination honoring the rack-local fraction.
	pickIdx := func() int {
		idx := g.R.Intn(len(conns))
		wantRack := g.R.Bool(p.RackLocalFrac)
		for tries := 0; tries < 8 && rackLocal[idx] != wantRack; tries++ {
			idx = g.R.Intn(len(conns))
		}
		return idx
	}
	// The model's events: a hot-flow rotation, and the start of an on or
	// an off period.
	const (
		kindRotate = workload.KindModel + iota
		kindOn
		kindOff
	)
	// The literature's elephants are sticky: one dominant flow persists
	// for seconds (the regime Hedera-style traffic engineering targets),
	// rotating only occasionally.
	hotIdx := pickIdx()
	onPhase := func() {
		onLen := netsim.Time(p.OnPeriod.Sample(g.R) * float64(netsim.Millisecond))
		n := int(onLen / gap)
		if n < 1 {
			n = 1
		}
		idx := hotIdx
		if !g.R.Bool(0.7) {
			idx = pickIdx()
		}
		c := conns[idx]
		for i := 0; i < n; i++ {
			size := packet.ACKSize
			if g.R.Bool(p.MTUFrac) {
				size = packet.MTUSize
			}
			g.Eng.AfterHeader(netsim.Time(i)*gap, packet.Header{Key: c.Key, Size: uint32(size), Flags: packet.FlagACK})
		}
		g.Eng.AfterEvent(onLen, netsim.Event{Kind: kindOff})
	}
	g.SetModelHandler(func(ev netsim.Event) {
		switch ev.Kind {
		case kindRotate:
			hotIdx = pickIdx()
			g.Eng.AfterEvent(2*netsim.Second, ev)
		case kindOn:
			onPhase()
		case kindOff:
			offLen := netsim.Time(p.OffPeriod.Sample(g.R) * float64(netsim.Millisecond))
			g.Eng.AfterEvent(offLen, netsim.Event{Kind: kindOn})
		}
	})
	g.Eng.AfterEvent(2*netsim.Second, netsim.Event{Kind: kindRotate})
	onPhase()
	g.Run(dur)
	return g.Emitted()
}

// AllToAllParams configures the uniform worst-case traffic assumption the
// paper's introduction criticizes: every host exchanges traffic with
// every other host "with equal frequency and intensity" [4], the model
// that motivates full-bisection fabrics.
type AllToAllParams struct {
	// PacketsPerSec is the host's outbound packet rate.
	PacketsPerSec float64
	// PacketBytes is the fixed packet size.
	PacketBytes uint32
}

// DefaultAllToAllParams returns a per-host load comparable to a busy
// Hadoop node's, so oversubscription sweeps compare workload *structure*
// rather than offered volume.
func DefaultAllToAllParams() AllToAllParams {
	return AllToAllParams{PacketsPerSec: 45000, PacketBytes: 1000}
}

// GenerateAllToAll synthesizes dur of uniform all-to-all traffic from
// host: every packet targets a uniformly random other host anywhere in
// the fleet. Contrast its locality (none) and oversubscription tolerance
// (none) with the measured workloads.
func GenerateAllToAll(topo *topology.Topology, host topology.HostID, seed uint64, p AllToAllParams, dur netsim.Time, sink workload.Collector) int64 {
	g := workload.NewGen(topo, host, seed, sink)
	n := topo.NumHosts()
	srcAddr := topo.Addr(host)
	// The model's one event kind: send a packet.
	const kindPacket = workload.KindModel
	g.SetModelHandler(func(netsim.Event) {
		dst := topology.HostID(g.R.Intn(n))
		for dst == host {
			dst = topology.HostID(g.R.Intn(n))
		}
		g.Emit(packet.Header{
			Key: packet.FlowKey{
				Src: srcAddr, Dst: topo.Addr(dst),
				SrcPort: g.AllocPort(), DstPort: 50010, Proto: packet.UDP,
			},
			Size: p.PacketBytes,
		})
	})
	g.Poisson(p.PacketsPerSec, netsim.Event{Kind: kindPacket})
	g.Run(dur)
	return g.Emitted()
}
