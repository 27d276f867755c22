package netsim

import (
	"testing"

	"fbdcnet/internal/packet"
	"fbdcnet/internal/topology"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %d", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineRunUntilStops(t *testing.T) {
	var e Engine
	ran := false
	e.At(100, func() { ran = true })
	if n := e.Run(50); n != 0 || ran {
		t.Fatal("event past `until` executed")
	}
	if e.Pending() != 1 {
		t.Fatal("pending event lost")
	}
	e.Run(100)
	if !ran {
		t.Fatal("event not executed on second Run")
	}
}

func TestEnginePastScheduling(t *testing.T) {
	var e Engine
	var at Time
	e.At(100, func() {
		e.At(50, func() { at = e.Now() }) // in the past: clamp to now
	})
	e.Run(200)
	if at != 100 {
		t.Fatalf("past-scheduled event ran at %d", at)
	}
}

func TestLinkTxTime(t *testing.T) {
	l := &Link{RateBps: 10_000_000_000}
	// 1250 bytes at 10 Gbps = 1 µs
	if got := l.TxTime(1250); got != Microsecond {
		t.Fatalf("TxTime = %d", got)
	}
}

func TestLinkUtilization(t *testing.T) {
	l := &Link{RateBps: 1_000_000_000}
	l.bytesTx = 125_000_000 // 1 Gbit
	if u := l.Utilization(Second); u < 0.999 || u > 1.001 {
		t.Fatalf("utilization %v", u)
	}
	if l.Utilization(0) != 0 {
		t.Fatal("zero-window utilization should be 0")
	}
	l.ResetCounters()
	if l.BytesTx() != 0 {
		t.Fatal("reset failed")
	}
}

// buildPair wires a single switch with one sink behind a slow link.
func buildPair(bufBytes int64, rate int64) (*Engine, *Switch, *Sink) {
	eng := &Engine{}
	sw := NewSwitch(eng, "sw", bufBytes)
	sink := NewSink("sink")
	sw.AddPort(&Link{RateBps: rate, Delay: 0}, sink)
	return eng, sw, sink
}

func mkPkt(size uint32) *Packet {
	return &Packet{Hdr: packet.Header{
		Key:  packet.FlowKey{Src: 0, Dst: 1, SrcPort: 1, DstPort: 2, Proto: packet.TCP},
		Size: size,
	}}
}

func TestSwitchForwards(t *testing.T) {
	eng, sw, sink := buildPair(1<<20, 10_000_000_000)
	sw.Receive(mkPkt(1000), 0)
	eng.Run(Second)
	if sink.Packets != 1 || sink.Bytes != 1000 {
		t.Fatalf("sink got %d pkts %d bytes", sink.Packets, sink.Bytes)
	}
	if sw.Occupancy() != 0 {
		t.Fatalf("buffer not drained: %d", sw.Occupancy())
	}
	if sw.Port(0).Forwarded() != 1 {
		t.Fatal("port forward counter wrong")
	}
}

func TestSwitchDropsWhenBufferFull(t *testing.T) {
	// Buffer of 1500 bytes, slow link: second packet must drop.
	eng, sw, sink := buildPair(1500, 1_000_000)
	dropped := 0
	sw.OnDrop = func(*Packet) { dropped++ }
	sw.Receive(mkPkt(1000), 0)
	sw.Receive(mkPkt(1000), 0)
	eng.Run(10 * Second)
	if sink.Packets != 1 {
		t.Fatalf("sink packets = %d, want 1", sink.Packets)
	}
	if sw.Drops() != 1 || dropped != 1 || sw.Port(0).Drops() != 1 {
		t.Fatalf("drops = %d (cb %d)", sw.Drops(), dropped)
	}
}

func TestSwitchSerializesFIFO(t *testing.T) {
	// Two packets at t=0 on a 8 Mbps link: 1000B takes 1ms each, so the
	// second arrives at 2ms.
	eng, sw, sink := buildPair(1<<20, 8_000_000)
	var arrivals []Time
	sink.OnPacket = func(*Packet) { arrivals = append(arrivals, eng.Now()) }
	sw.Receive(mkPkt(1000), 0)
	sw.Receive(mkPkt(1000), 0)
	eng.Run(Second)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals %v", arrivals)
	}
	if arrivals[0] != Millisecond || arrivals[1] != 2*Millisecond {
		t.Fatalf("arrival times %v", arrivals)
	}
}

func TestSwitchSharedBufferAcrossPorts(t *testing.T) {
	eng := &Engine{}
	sw := NewSwitch(eng, "sw", 1500)
	s1, s2 := NewSink("a"), NewSink("b")
	sw.AddPort(&Link{RateBps: 1_000_000}, s1)
	sw.AddPort(&Link{RateBps: 1_000_000}, s2)
	sw.Receive(mkPkt(1000), 0)
	sw.Receive(mkPkt(1000), 1) // different port, same shared pool: drop
	eng.Run(10 * Second)
	if s1.Packets+s2.Packets != 1 || sw.Drops() != 1 {
		t.Fatalf("shared pool not enforced: delivered %d drops %d", s1.Packets+s2.Packets, sw.Drops())
	}
}

func TestSwitchBadPortPanics(t *testing.T) {
	eng, sw, _ := buildPair(1<<20, 1_000_000)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("bad port accepted")
		}
	}()
	sw.Receive(mkPkt(100), 7)
}

func newTestFabric(t *testing.T) (*Engine, *Fabric, *topology.Topology) {
	t.Helper()
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	eng := &Engine{}
	return eng, NewFabric(eng, topo, DefaultFabricConfig()), topo
}

func inject(f *Fabric, src, dst topology.HostID, size uint32) {
	f.Inject(packet.Header{
		Key: packet.FlowKey{
			Src: f.Topo.Addr(src), Dst: f.Topo.Addr(dst),
			SrcPort: 1000, DstPort: 80, Proto: packet.TCP,
		},
		Size: size,
	})
}

// pickPair finds a (src, dst) pair with the given locality.
func pickPair(t *testing.T, topo *topology.Topology, want topology.Locality) (topology.HostID, topology.HostID) {
	t.Helper()
	for i := 0; i < topo.NumHosts(); i++ {
		for j := 0; j < topo.NumHosts(); j++ {
			if topo.Locality(topology.HostID(i), topology.HostID(j)) == want {
				return topology.HostID(i), topology.HostID(j)
			}
		}
	}
	t.Fatalf("no pair with locality %v", want)
	return 0, 0
}

func TestFabricDeliversAllLocalities(t *testing.T) {
	for _, loc := range topology.Localities {
		eng, f, topo := newTestFabric(t)
		src, dst := pickPair(t, topo, loc)
		inject(f, src, dst, 1000)
		eng.Run(Second)
		if got := f.Sink(dst).Packets; got != 1 {
			t.Errorf("%v: delivered %d packets, want 1", loc, got)
		}
		if f.Sink(src).Packets != 0 {
			t.Errorf("%v: source received its own packet", loc)
		}
	}
}

func TestFabricLoopbackIgnored(t *testing.T) {
	eng, f, _ := newTestFabric(t)
	inject(f, 3, 3, 500)
	eng.Run(Second)
	if f.Injected() != 0 || f.Sink(3).Packets != 0 {
		t.Fatal("loopback packet entered the fabric")
	}
}

func TestFabricLatencyOrdering(t *testing.T) {
	// Farther destinations must take longer.
	var times [5]Time
	for i, loc := range topology.Localities {
		eng, f, topo := newTestFabric(t)
		src, dst := pickPair(t, topo, loc)
		inject(f, src, dst, 1000)
		var at Time
		f.Sink(dst).OnPacket = func(*Packet) { at = eng.Now() }
		eng.Run(10 * Second)
		times[i] = at
	}
	for i := 1; i < len(topology.Localities); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("latency not increasing with distance: %v", times)
		}
	}
}

func TestFabricEdgeAccounting(t *testing.T) {
	eng, f, topo := newTestFabric(t)
	src, dst := pickPair(t, topo, topology.IntraCluster)
	for i := 0; i < 10; i++ {
		inject(f, src, dst, 1000)
	}
	eng.Run(Second)
	edge := f.LinksByTier(TierHostRSW)
	if got := edge[src].BytesTx(); got != 10000 {
		t.Fatalf("edge bytes = %d", got)
	}
	// RSW→CSW tier must have carried the traffic too.
	total := int64(0)
	for _, l := range f.LinksByTier(TierRSWCSW) {
		total += l.BytesTx()
	}
	if total != 10000 {
		t.Fatalf("rack uplink bytes = %d", total)
	}
}

func TestFabricIntraRackStaysLocal(t *testing.T) {
	eng, f, topo := newTestFabric(t)
	src, dst := pickPair(t, topo, topology.IntraRack)
	inject(f, src, dst, 1000)
	eng.Run(Second)
	for _, l := range f.LinksByTier(TierRSWCSW) {
		if l.BytesTx() != 0 {
			t.Fatal("intra-rack packet left the rack")
		}
	}
	if f.Sink(dst).Packets != 1 {
		t.Fatal("intra-rack packet lost")
	}
}

func TestSampleOccupancy(t *testing.T) {
	eng, sw, _ := buildPair(1<<20, 1_000_000) // slow link keeps queue busy
	var samples int
	var maxOcc int64
	SampleOccupancy(eng, sw, 10*Microsecond, 10*Millisecond, func(_ Time, occ int64) {
		samples++
		if occ > maxOcc {
			maxOcc = occ
		}
	})
	for i := 0; i < 20; i++ {
		sw.Receive(mkPkt(1000), 0)
	}
	eng.Run(10 * Millisecond)
	if samples != 1000 {
		t.Fatalf("samples = %d, want 1000", samples)
	}
	if maxOcc == 0 {
		t.Fatal("sampler never saw queued bytes")
	}
}

func BenchmarkFabricInject(b *testing.B) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	eng := &Engine{}
	f := NewFabric(eng, topo, DefaultFabricConfig())
	hdr := packet.Header{
		Key: packet.FlowKey{
			Src: topo.Addr(0), Dst: topo.Addr(topology.HostID(topo.NumHosts() - 1)),
			SrcPort: 1, DstPort: 2, Proto: packet.TCP,
		},
		Size: 200,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Inject(hdr)
		if i%1024 == 0 {
			eng.Run(eng.Now() + Second)
		}
	}
	eng.Run(eng.Now() + 10*Second)
}
