package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

func tinyTopo(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.MustBuild(topology.Preset(topology.ScaleTiny))
}

// mk builds an outbound header from host src to dst at time t.
func mk(topo *topology.Topology, src, dst topology.HostID, t netsim.Time, size uint32, sport, dport uint16, flags packet.Flags) packet.Header {
	return packet.Header{
		Time: t,
		Key: packet.FlowKey{
			Src: topo.Addr(src), Dst: topo.Addr(dst),
			SrcPort: sport, DstPort: dport, Proto: packet.TCP,
		},
		Size:  size,
		Flags: flags,
	}
}

// onlyFlow returns the first flow fl assembled.
func onlyFlow(fl *Flows) *Flow {
	var f *Flow
	fl.each(func(g *Flow) {
		if f == nil {
			f = g
		}
	})
	return f
}

func TestFlowsAssembly(t *testing.T) {
	topo := tinyTopo(t)
	fl := NewFlows(topo, 0)
	// Outbound flow with a reply: both directions merge into one flow.
	out := mk(topo, 0, 5, 0, 100, 1000, 80, packet.FlagSYN)
	fl.Packet(out)
	reply := mk(topo, 5, 0, netsim.Millisecond, 200, 80, 1000, 0)
	fl.Packet(reply)
	fl.Packet(mk(topo, 0, 5, 2*netsim.Millisecond, 300, 1000, 80, 0))

	if fl.Count() != 1 {
		t.Fatalf("flows = %d, want 1 (directions must merge)", fl.Count())
	}
	f := onlyFlow(fl)
	if f.Bytes != 600 || f.Packets != 3 {
		t.Fatalf("flow totals: %d bytes %d pkts", f.Bytes, f.Packets)
	}
	if !f.SawSYN || !f.Outbound {
		t.Fatal("SYN/outbound flags wrong")
	}
	if f.Duration() != 2*netsim.Millisecond {
		t.Fatalf("duration %d", f.Duration())
	}
}

func TestFlowsLocalityTagging(t *testing.T) {
	topo := tinyTopo(t)
	fl := NewFlows(topo, 0)
	far := topology.HostID(topo.NumHosts() - 1)
	fl.Packet(mk(topo, 0, far, 0, 100, 1, 2, 0))
	f := onlyFlow(fl)
	if f.Locality != topology.InterDatacenter {
		t.Fatalf("locality %v", f.Locality)
	}
}

func TestFlowsSizeAndDurationCDF(t *testing.T) {
	topo := tinyTopo(t)
	fl := NewFlows(topo, 0)
	// Two flows of different sizes: one intra-rack, one intra-cluster.
	fl.Packet(mk(topo, 0, 1, 0, 1024, 10, 80, 0))
	fl.Packet(mk(topo, 0, 7, 0, 2048, 11, 80, 0))
	fl.Packet(mk(topo, 0, 7, netsim.Second, 2048, 11, 80, 0))
	perLoc, all := fl.SizeCDF()
	if all.N() != 2 {
		t.Fatalf("size CDF flows = %d", all.N())
	}
	if s := perLoc[topology.IntraRack]; s == nil || s.N() != 1 || s.Quantile(0.5) != 1 {
		t.Fatal("intra-rack size CDF wrong")
	}
	_, dAll := fl.DurationCDF()
	if dAll.Quantile(1) != 1000 { // 1 s in ms
		t.Fatalf("max duration %v ms", dAll.Quantile(1))
	}
}

func TestPerHostSizeCDFAggregates(t *testing.T) {
	topo := tinyTopo(t)
	fl := NewFlows(topo, 0)
	// Two 5-tuple flows to the same host collapse in the per-host CDF.
	fl.Packet(mk(topo, 0, 5, 0, 1024, 10, 80, 0))
	fl.Packet(mk(topo, 0, 5, 0, 1024, 11, 80, 0))
	fl.Packet(mk(topo, 0, 6, 0, 512, 12, 80, 0))
	perLoc, s := fl.PerHostSizeCDF()
	if s.N() != 2 {
		t.Fatalf("per-host entries = %d", s.N())
	}
	if s.Quantile(1) != 2 { // 2 KB to host 5
		t.Fatalf("max per-host KB = %v", s.Quantile(1))
	}
	total := 0
	for _, ls := range perLoc {
		total += ls.N()
	}
	if total != 2 {
		t.Fatalf("per-locality split covers %d hosts, want 2", total)
	}
	if _, ok := perLoc[topology.InterDatacenter]; ok {
		t.Fatal("absent locality has a per-host sample")
	}
}

func TestLocalitySeriesShares(t *testing.T) {
	topo := tinyTopo(t)
	ls := NewLocalitySeries(topo, 0)
	rackPeer := topo.Racks[topo.HostRack(0)].Host(1)
	far := topology.HostID(topo.NumHosts() - 1)
	ls.Packet(mk(topo, 0, rackPeer, 0, 300, 1, 2, 0))
	ls.Packet(mk(topo, 0, far, netsim.Second, 700, 1, 2, 0))
	// Inbound packets must not count.
	ls.Packet(mk(topo, far, 0, 0, 999, 1, 2, 0))

	share := ls.Share()
	if math.Abs(share[topology.IntraRack]-0.3) > 1e-9 {
		t.Fatalf("rack share %v", share[topology.IntraRack])
	}
	if math.Abs(share[topology.InterDatacenter]-0.7) > 1e-9 {
		t.Fatalf("interDC share %v", share[topology.InterDatacenter])
	}
	if got := ls.Series(topology.IntraRack); got[0] != 300 {
		t.Fatalf("series %v", got)
	}
}

func TestServiceMix(t *testing.T) {
	topo := tinyTopo(t)
	web := topo.HostsByRole(topology.RoleWeb)[0]
	cache := topo.HostsByRole(topology.RoleCacheFollower)[0]
	mf := topo.HostsByRole(topology.RoleMultifeed)[0]
	sm := NewServiceMix(topo, web)
	sm.Packet(mk(topo, web, cache, 0, 600, 1, 2, 0))
	sm.Packet(mk(topo, web, mf, 0, 400, 1, 2, 0))
	share := sm.Share()
	if math.Abs(share[topology.RoleCacheFollower]-0.6) > 1e-9 {
		t.Fatalf("cache share %v", share)
	}
	if math.Abs(share[topology.RoleMultifeed]-0.4) > 1e-9 {
		t.Fatalf("mf share %v", share)
	}
}

func TestHeavyHittersTable4Stats(t *testing.T) {
	topo := tinyTopo(t)
	hh := NewHeavyHitters(topo, 0, LevelFlow, netsim.Millisecond)
	// Bin 0: one dominant flow (600 of 1000 bytes) → HH set of size 1.
	hh.Packet(mk(topo, 0, 1, 0, 600, 10, 80, 0))
	hh.Packet(mk(topo, 0, 2, 100, 250, 11, 80, 0))
	hh.Packet(mk(topo, 0, 3, 200, 150, 12, 80, 0))
	hh.Finish()
	if n := hh.Counts().N(); n != 1 {
		t.Fatalf("bins = %d", n)
	}
	if c := hh.Counts().Quantile(0.5); c != 1 {
		t.Fatalf("HH count %v, want 1", c)
	}
	// 600 bytes in 1 ms = 4.8 Mbps
	if r := hh.Rates().Quantile(0.5); math.Abs(r-4.8) > 1e-9 {
		t.Fatalf("HH rate %v Mbps", r)
	}
}

func TestHeavyHittersPersistence(t *testing.T) {
	topo := tinyTopo(t)
	hh := NewHeavyHitters(topo, 0, LevelFlow, netsim.Millisecond)
	// Flow A heavy in bins 0 and 1 → persistence 100%.
	hh.Packet(mk(topo, 0, 1, 0, 900, 10, 80, 0))
	hh.Packet(mk(topo, 0, 2, 100, 100, 11, 80, 0))
	hh.Packet(mk(topo, 0, 1, int64(netsim.Millisecond), 900, 10, 80, 0))
	hh.Packet(mk(topo, 0, 2, int64(netsim.Millisecond)+100, 100, 11, 80, 0))
	hh.Finish()
	if p := hh.Persistence(); p.N() != 1 || p.Quantile(0.5) != 100 {
		t.Fatalf("persistence %v (n=%d)", p.Quantile(0.5), p.N())
	}

	// Disjoint heavy hitters across bins → persistence 0%.
	hh2 := NewHeavyHitters(topo, 0, LevelFlow, netsim.Millisecond)
	hh2.Packet(mk(topo, 0, 1, 0, 900, 10, 80, 0))
	hh2.Packet(mk(topo, 0, 2, int64(netsim.Millisecond), 900, 11, 80, 0))
	hh2.Finish()
	if p := hh2.Persistence(); p.N() != 1 || p.Quantile(0.5) != 0 {
		t.Fatalf("disjoint persistence %v", p.Quantile(0.5))
	}
}

func TestHeavyHittersRackAggregation(t *testing.T) {
	topo := tinyTopo(t)
	// Two hosts in the same destination rack: at rack level one key.
	rack := topo.Racks[topo.HostRack(0)]
	_ = rack
	h5, h6 := topology.HostID(5), topology.HostID(6)
	if topo.HostRack(h5) != topo.HostRack(h6) {
		// find two same-rack hosts distinct from 0
		found := false
		for _, r := range topo.Racks {
			if int(r.NumHosts) >= 2 && r.Host(0) != 0 {
				h5, h6 = r.Host(0), r.Host(1)
				found = true
				break
			}
		}
		if !found {
			t.Skip("no suitable rack")
		}
	}
	hh := NewHeavyHitters(topo, 0, LevelRack, netsim.Millisecond)
	hh.Packet(mk(topo, 0, h5, 0, 500, 10, 80, 0))
	hh.Packet(mk(topo, 0, h6, 100, 500, 11, 80, 0))
	hh.Finish()
	if c := hh.Counts().Quantile(0.5); c != 1 {
		t.Fatalf("rack-level HH count %v, want 1", c)
	}
}

func TestHeavyHittersIntersection(t *testing.T) {
	topo := tinyTopo(t)
	hh := NewHeavyHitters(topo, 0, LevelFlow, 100*netsim.Millisecond)
	// Flow A dominates the whole second; flow B is instantaneously heavy
	// in one subinterval only.
	for i := int64(0); i < 9; i++ {
		hh.Packet(mk(topo, 0, 1, i*int64(100*netsim.Millisecond), 1000, 10, 80, 0))
	}
	hh.Packet(mk(topo, 0, 2, 9*int64(100*netsim.Millisecond), 1000, 11, 80, 0))
	hh.Finish()
	in := hh.Intersection()
	if in.N() != 10 {
		t.Fatalf("intersection samples %d", in.N())
	}
	// Nine subintervals match (A is second-level heavy), one does not.
	if got := in.Mean(); math.Abs(got-90) > 1e-9 {
		t.Fatalf("mean intersection %v%%, want 90%%", got)
	}
}

func TestPacketSizes(t *testing.T) {
	topo := tinyTopo(t)
	ps := NewPacketSizes()
	ps.Packet(mk(topo, 0, 1, 0, 66, 1, 2, 0))
	ps.Packet(mk(topo, 0, 1, 0, 1514, 1, 2, 0))
	if ps.Sample().N() != 2 || ps.Sample().Quantile(1) != 1514 {
		t.Fatal("packet size sample wrong")
	}
}

func TestArrivalsSYNAndBins(t *testing.T) {
	topo := tinyTopo(t)
	a := NewArrivals(topo.Addr(0), 15*netsim.Millisecond, 100*netsim.Millisecond)
	// SYNs 2 ms apart.
	for i := int64(0); i < 5; i++ {
		a.Packet(mk(topo, 0, 1, i*2*int64(netsim.Millisecond), 74, uint16(i), 80, packet.FlagSYN))
	}
	// SYN-ACKs (inbound direction simulated as outbound here) must not
	// count as new flows.
	a.Packet(mk(topo, 0, 1, 1, 74, 99, 80, packet.FlagSYN|packet.FlagACK))
	if a.SYNCount() != 5 {
		t.Fatalf("SYN count %d", a.SYNCount())
	}
	gaps := a.SYNInterarrivalsMicros()
	if gaps.N() != 4 || math.Abs(gaps.Median()-2000) > 1e-9 {
		t.Fatalf("gap median %v µs", gaps.Median())
	}
	if got := a.Bins(15 * netsim.Millisecond); len(got) == 0 {
		t.Fatal("no bins")
	}
}

func TestOnOffScore(t *testing.T) {
	topo := tinyTopo(t)
	a := NewArrivals(topo.Addr(0), 10*netsim.Millisecond)
	// Continuous arrivals: every 10-ms bin occupied (offset from the
	// exact boundary to avoid float rounding at bin edges).
	for i := int64(0); i < 100; i++ {
		at := i*int64(10*netsim.Millisecond) + int64(netsim.Millisecond)
		a.Packet(mk(topo, 0, 1, at, 100, 1, 2, 0))
	}
	if s := a.OnOffScore(10 * netsim.Millisecond); s != 0 {
		t.Fatalf("continuous traffic on/off score %v", s)
	}

	b := NewArrivals(topo.Addr(0), 10*netsim.Millisecond)
	// Bursty: packets only in every 10th bin.
	for i := int64(0); i < 10; i++ {
		b.Packet(mk(topo, 0, 1, i*int64(100*netsim.Millisecond), 100, 1, 2, 0))
	}
	if s := b.OnOffScore(10 * netsim.Millisecond); s < 0.8 {
		t.Fatalf("on/off traffic score %v, want ≥0.8", s)
	}
}

func TestConcurrencyWindows(t *testing.T) {
	topo := tinyTopo(t)
	c := NewConcurrency(topo, 0, ConcurrencyWindow)
	// Window 0: three racks, one dominant.
	clusterHosts := topo.Clusters[topo.HostCluster(0)].Racks
	h1 := topo.Racks[clusterHosts[1]].Host(0)
	h2 := topo.Racks[clusterHosts[2]].Host(0)
	h3 := topo.Racks[clusterHosts[3]].Host(0)
	c.Packet(mk(topo, 0, h1, 0, 800, 1, 2, 0))
	c.Packet(mk(topo, 0, h2, 100, 100, 1, 2, 0))
	c.Packet(mk(topo, 0, h3, 200, 100, 1, 2, 0))
	c.Finish()
	if n := c.RacksAll().Quantile(0.5); n != 3 {
		t.Fatalf("racks per window %v", n)
	}
	if n := c.Racks(topology.IntraCluster).Quantile(0.5); n != 3 {
		t.Fatalf("intra-cluster racks %v", n)
	}
	if n := c.HHRacksAll().Quantile(0.5); n != 1 {
		t.Fatalf("hh racks %v, want 1", n)
	}
	if f := c.Flows().Quantile(0.5); f != 3 {
		t.Fatalf("concurrent flows %v", f)
	}
	if h := c.Hosts().Quantile(0.5); h != 3 {
		t.Fatalf("concurrent hosts %v", h)
	}
}

func TestRateSeriesStability(t *testing.T) {
	topo := tinyTopo(t)
	rs := NewRateSeries(topo, 0)
	// Steady rack: 1000 B/s for 10 s to one rack; bursty to another.
	cluster := topo.Clusters[topo.HostCluster(0)]
	steady := topo.Racks[cluster.Racks[1]].Host(0)
	bursty := topo.Racks[cluster.Racks[2]].Host(0)
	for s := int64(0); s < 10; s++ {
		rs.Packet(mk(topo, 0, steady, s*int64(netsim.Second), 1000, 1, 2, 0))
	}
	rs.Packet(mk(topo, 0, bursty, 0, 100, 1, 2, 0))
	rs.Packet(mk(topo, 0, bursty, int64(netsim.Second), 10000, 1, 2, 0))

	if rs.Racks() != 2 {
		t.Fatalf("racks %d", rs.Racks())
	}
	if f := rs.FracWithinFactor(2); f < 0.8 {
		t.Fatalf("frac within 2x = %v", f)
	}
	cdf := rs.StabilityCDF()
	if cdf.N() == 0 {
		t.Fatal("empty stability CDF")
	}
	// The steady rack contributes values exactly 1.0.
	if cdf.Quantile(0.5) != 1 {
		t.Fatalf("median stability %v", cdf.Quantile(0.5))
	}
	if rs.SignificantChangeFrac() <= 0 {
		t.Fatal("bursty rack should register significant change")
	}
}

func TestBufferStatsPerSecond(t *testing.T) {
	b := NewBufferStats(1000)
	// Second 0: samples 100..500; second 1: constant 900.
	for i := int64(0); i < 5; i++ {
		b.Sample(i*200*int64(netsim.Millisecond), (i+1)*100)
	}
	b.Sample(int64(netsim.Second)+1, 900)
	b.Finish()
	if len(b.Median()) != 2 || len(b.Max()) != 2 {
		t.Fatalf("seconds: %d/%d", len(b.Median()), len(b.Max()))
	}
	if math.Abs(b.Median()[0]-0.3) > 1e-9 || math.Abs(b.Max()[0]-0.5) > 1e-9 {
		t.Fatalf("second 0: med %v max %v", b.Median()[0], b.Max()[0])
	}
	if math.Abs(b.Max()[1]-0.9) > 1e-9 {
		t.Fatalf("second 1 max %v", b.Max()[1])
	}
}

func TestLevelString(t *testing.T) {
	if LevelFlow.String() != "Flows" || LevelHost.String() != "Hosts" || LevelRack.String() != "Racks" {
		t.Fatal("level strings wrong")
	}
}

func TestTrainsDetection(t *testing.T) {
	topo := tinyTopo(t)
	tr := NewTrains(topo.Addr(0), netsim.Millisecond)
	// Train of 3 to host 1, then a destination switch, then a gap break.
	tr.Packet(mk(topo, 0, 1, 0, 100, 1, 2, 0))
	tr.Packet(mk(topo, 0, 1, 100, 100, 1, 2, 0))
	tr.Packet(mk(topo, 0, 1, 200, 100, 1, 2, 0))
	tr.Packet(mk(topo, 0, 2, 300, 100, 1, 2, 0))                              // dst switch: run of 3 closed
	tr.Packet(mk(topo, 0, 2, 300+int64(10*netsim.Millisecond), 100, 1, 2, 0)) // gap: run of 1 closed
	tr.Finish()

	lengths := tr.Lengths()
	if lengths.N() != 3 {
		t.Fatalf("trains %d, want 3", lengths.N())
	}
	if lengths.Quantile(1) != 3 {
		t.Fatalf("longest train %v, want 3", lengths.Quantile(1))
	}
	if lengths.Quantile(0) != 1 {
		t.Fatalf("shortest train %v, want 1", lengths.Quantile(0))
	}
}

func TestTrainsIgnoresInbound(t *testing.T) {
	topo := tinyTopo(t)
	tr := NewTrains(topo.Addr(0), netsim.Millisecond)
	tr.Packet(mk(topo, 1, 0, 0, 100, 1, 2, 0)) // inbound
	tr.Finish()
	if tr.Lengths().N() != 0 {
		t.Fatal("inbound packet formed a train")
	}
}

func TestTrainsPanicsOnZeroGap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero gap accepted")
		}
	}()
	NewTrains(0, 0)
}

func TestHeavyHitterInvariantsProperty(t *testing.T) {
	// Property: for random traffic, every persistence and intersection
	// value lies in [0,100], HH counts are at least 1 per non-empty bin,
	// and rates are positive.
	topo := tinyTopo(t)
	r := rng.New(99)
	err := quick.Check(func(seed uint64) bool {
		hh := NewHeavyHitters(topo, 0, LevelFlow, netsim.Millisecond)
		n := int(seed%200) + 20
		for i := 0; i < n; i++ {
			dst := topology.HostID(1 + r.Intn(topo.NumHosts()-1))
			at := int64(r.Intn(20)) * int64(netsim.Millisecond) / 4
			hh.Packet(mk(topo, 0, dst, at, uint32(64+r.Intn(1400)), uint16(r.Intn(100)), 80, 0))
		}
		hh.Finish()
		for _, v := range hh.Persistence().Values() {
			if v < 0 || v > 100 {
				return false
			}
		}
		for _, v := range hh.Intersection().Values() {
			if v < 0 || v > 100 {
				return false
			}
		}
		for _, v := range hh.Counts().Values() {
			if v < 1 {
				return false
			}
		}
		for _, v := range hh.Rates().Values() {
			if v <= 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlowAssemblyConservesBytesProperty(t *testing.T) {
	// Property: total bytes across assembled flows equals total bytes fed.
	topo := tinyTopo(t)
	r := rng.New(123)
	err := quick.Check(func(seed uint64) bool {
		fl := NewFlows(topo, 0)
		var total int64
		n := int(seed%300) + 1
		for i := 0; i < n; i++ {
			size := uint32(64 + r.Intn(1450))
			dst := topology.HostID(1 + r.Intn(topo.NumHosts()-1))
			fl.Packet(mk(topo, 0, dst, int64(i)*1000, size, uint16(r.Intn(50)), 80, 0))
			total += int64(size)
		}
		var got int64
		fl.each(func(f *Flow) { got += f.Bytes })
		return got == total
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrencyBoundsProperty(t *testing.T) {
	// Property: heavy-hitter racks never exceed total racks per window,
	// and hosts never exceed flows.
	topo := tinyTopo(t)
	r := rng.New(321)
	err := quick.Check(func(seed uint64) bool {
		c := NewConcurrency(topo, 0, ConcurrencyWindow)
		n := int(seed%500) + 10
		for i := 0; i < n; i++ {
			dst := topology.HostID(1 + r.Intn(topo.NumHosts()-1))
			at := int64(r.Intn(50)) * int64(netsim.Millisecond)
			c.Packet(mk(topo, 0, dst, at, 200, uint16(r.Intn(30)), 80, 0))
		}
		c.Finish()
		hh, all := c.HHRacksAll().Values(), c.RacksAll().Values()
		if len(hh) != len(all) {
			return false
		}
		for i := range hh {
			if hh[i] > all[i] {
				return false
			}
		}
		hosts, flows := c.Hosts().Values(), c.Flows().Values()
		for i := range hosts {
			if hosts[i] > flows[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}
