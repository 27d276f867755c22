package baseline

import (
	"testing"

	"fbdcnet/internal/dist"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// later schedules fn d after the current time: the closure form of a
// typed event.
func later(g *workload.Gen, d netsim.Time, fn func()) { g.Eng.At(g.Eng.Now()+d, fn) }

// closureGenerate is Generate as it was before typed events: the hot
// flow's rotation, every on and off period and every packet a closure.
// It is the draw-for-draw oracle of Generate.
func closureGenerate(topo *topology.Topology, host topology.HostID, seed uint64, p OnOffParams, dur netsim.Time, sink workload.Collector) int64 {
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
	// The literature's elephants are sticky: one dominant flow persists
	// for seconds (the regime Hedera-style traffic engineering targets),
	// rotating only occasionally.
	hotIdx := pickIdx()
	var rotate func()
	rotate = func() {
		hotIdx = pickIdx()
		later(g, 2*netsim.Second, rotate)
	}
	later(g, 2*netsim.Second, rotate)

	var onPhase func()
	var offPhase func()
	onPhase = func() {
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
			at := netsim.Time(i) * gap
			hdr := packet.Header{Key: c.Key, Size: uint32(size), Flags: packet.FlagACK}
			later(g, at, func() { g.Emit(hdr) })
		}
		later(g, onLen, offPhase)
	}
	offPhase = func() {
		offLen := netsim.Time(p.OffPeriod.Sample(g.R) * float64(netsim.Millisecond))
		later(g, offLen, onPhase)
	}
	onPhase()
	g.Run(dur)
	return g.Emitted()
}

// TestGenerateMatchesClosureSchedule runs the on/off model and its
// closure form for seeds 1, 7 and 42 on a Hadoop host, and on a Web
// host with fixed 0.5 ms periods, so that an on period starts at the
// same time as every hot-flow rotation, and requires identical streams,
// header by header, and the same packet count.
func TestGenerateMatchesClosureSchedule(t *testing.T) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	dense := DefaultOnOffParams()
	dense.OnPeriod = dist.Constant{V: 0.5}
	dense.OffPeriod = dist.Constant{V: 0.5} // a period starts on every 2 s rotation
	for _, arm := range []struct {
		host topology.HostID
		p    OnOffParams
	}{
		{topo.HostsByRole(topology.RoleHadoop)[0], DefaultOnOffParams()},
		{topo.HostsByRole(topology.RoleWeb)[0], dense},
	} {
		for _, seed := range []uint64{1, 7, 42} {
			var want, got []packet.Header
			nw := closureGenerate(topo, arm.host, seed, arm.p, 3*netsim.Second,
				collector(func(h packet.Header) { want = append(want, h) }))
			ng := Generate(topo, arm.host, seed, arm.p, 3*netsim.Second,
				collector(func(h packet.Header) { got = append(got, h) }))
			if nw == 0 || ng != nw || len(got) != len(want) {
				t.Fatalf("host %d seed %d: %d packets, want %d", arm.host, seed, ng, nw)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("host %d seed %d: packet %d: %+v, want %+v", arm.host, seed, i, got[i], want[i])
				}
			}
		}
	}
}
