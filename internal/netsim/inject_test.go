package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fbdcnet/internal/packet"
	"fbdcnet/internal/telemetry"
	"fbdcnet/internal/topology"
)

// delivery is one sink's view of a delivered packet.
type delivery struct {
	at    Time
	hdr   packet.Header
	tries uint8
}

// fabricOutcome is everything a run leaves behind that injection order
// could move.
type fabricOutcome struct {
	deliveries [][]delivery // per host sink
	stats      FabricStats
	faults     FaultStats
	portDrops  [][]int64 // per switch, per port
	portFwd    [][]int64
	records    []*telemetry.PathRecord
	agg        telemetry.Agg
	occ        []*telemetry.OccSeries
}

// TestInjectSortedMatchesPerHeaderAt runs the same two-window workload
// through two fabrics, one injecting each header by its own At closure
// (the old per-header path) and one by InjectSorted, and requires every
// observable outcome to be identical. The fabric is runTwoWindows':
// shallow RSW buffers, csw-down and link-flap faults, telemetry of every
// flow and queue sampling. The second window is scheduled while the
// first is still running, so part of it lies in the past and is clamped
// to the current time. Both ECMP modes run: rerouting around the dead elements, and
// the no-reroute ablation, which drops and retransmits into them.
// Neither injection may write to the header slice.
func TestInjectSortedMatchesPerHeaderAt(t *testing.T) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	const horizon = injectHorizon
	r := rand.New(rand.NewSource(11))
	hdrs := make([]packet.Header, 6000)
	for i := range hdrs {
		src := topo.Racks[r.Intn(2)].Host(r.Intn(int(topo.Racks[0].NumHosts)))
		dst := topology.HostID(r.Intn(topo.NumHosts()))
		hdrs[i] = packet.Header{
			Time: Time(r.Intn(int(horizon/Microsecond))) * Microsecond, // coarse: many same-time ties
			Key: packet.FlowKey{
				Src: topo.Addr(src), Dst: topo.Addr(dst),
				SrcPort: uint16(1000 + r.Intn(64)), DstPort: 80, Proto: packet.TCP,
			},
			Size: uint32(64 + r.Intn(1437)),
		}
	}
	packet.SortByTime(hdrs)
	orig := append([]packet.Header(nil), hdrs...)

	run := func(sorted, noReroute bool) fabricOutcome {
		return runTwoWindows(t, topo, noReroute, horizon*3/2, func(f *Fabric, offset Time) {
			if sorted {
				f.InjectSorted(hdrs, offset)
				return
			}
			for _, h := range hdrs {
				h.Time += offset
				f.Eng.At(h.Time, func() { f.Inject(h) })
			}
		})
	}
	for _, noReroute := range []bool{false, true} {
		want := run(false, noReroute)
		got := run(true, noReroute)
		if !reflect.DeepEqual(hdrs, orig) {
			t.Fatal("the header slice was written to")
		}
		if want.stats.Drops == 0 || len(want.records) == 0 {
			t.Fatalf("noReroute=%v: workload too light: %+v, %d path records", noReroute, want.stats, len(want.records))
		}
		if !noReroute && want.faults.ReroutedPkts == 0 || noReroute && want.faults.Retransmits == 0 {
			t.Fatalf("noReroute=%v: faults exercise neither reroutes nor retransmissions: %+v", noReroute, want.faults)
		}
		compareOutcomes(t, noReroute, got, want)
	}
}

// injectHorizon is the window length of runTwoWindows' workloads.
const injectHorizon = 20 * Millisecond

// runTwoWindows runs a workload through a fabric with shallow RSW
// buffers (buffer drops), csw-down and link-flap fault schedules
// (rerouting, fault drops of queued packets, retransmissions), telemetry
// sampling of every flow, queue sampling and a delivery log per sink.
// inject schedules one window shifted by offset: the first at 0, then,
// after the engine has run to mid, the second at injectHorizon.
func runTwoWindows(t *testing.T, topo *topology.Topology, noReroute bool, mid Time, inject func(f *Fabric, offset Time)) fabricOutcome {
	t.Helper()
	const horizon = injectHorizon
	eng := &Engine{}
	cfg := DefaultFabricConfig()
	cfg.RSWBufBytes = 48 << 10
	f := NewFabric(eng, topo, cfg)
	f.DisableReroute = noReroute
	ts := telemetry.NewSink(7, 1)
	f.AttachTelemetry(ts)
	for _, sc := range []string{ScenarioCSWDown, ScenarioLinkFlap} {
		sched, err := NewFaultSchedule(sc, topo, topo.Racks[0].Host(0), 7, 2*horizon)
		if err != nil {
			t.Fatal(err)
		}
		f.ApplyFaults(sched)
	}
	out := fabricOutcome{deliveries: make([][]delivery, topo.NumHosts())}
	for h := range out.deliveries {
		h := h
		f.Sink(topology.HostID(h)).OnPacket = func(p *Packet) {
			out.deliveries[h] = append(out.deliveries[h], delivery{eng.Now(), p.Hdr, p.Tries})
		}
	}
	f.StartQueueSampling(100*Microsecond, 2*horizon)
	inject(f, 0)
	eng.Run(mid)
	inject(f, horizon)
	eng.Run(2*horizon + 100*Millisecond)

	out.stats, out.faults = f.Stats(), f.Faults()
	for _, sw := range f.allSwitches() {
		var drops, fwd []int64
		for i := 0; i < sw.NumPorts(); i++ {
			drops = append(drops, sw.Port(i).Drops())
			fwd = append(fwd, sw.Port(i).Forwarded())
		}
		out.portDrops = append(out.portDrops, drops)
		out.portFwd = append(out.portFwd, fwd)
	}
	out.records, out.agg, out.occ = ts.Records, ts.Agg, ts.Occ
	return out
}

// compareOutcomes requires every observable outcome of two runs to be
// identical, and the reference run to exercise drops, path records and
// its ECMP mode's fault handling: reroutes, or with noReroute
// retransmissions.
func compareOutcomes(t *testing.T, noReroute bool, got, want fabricOutcome) {
	t.Helper()
	name := fmt.Sprintf("noReroute=%v", noReroute)
	if want.stats.Drops == 0 || len(want.records) == 0 {
		t.Fatalf("%s: workload too light: %+v, %d path records", name, want.stats, len(want.records))
	}
	if !noReroute && want.faults.ReroutedPkts == 0 || noReroute && want.faults.Retransmits == 0 {
		t.Fatalf("%s: faults exercise neither reroutes nor retransmissions: %+v", name, want.faults)
	}
	for h := range want.deliveries {
		if !reflect.DeepEqual(got.deliveries[h], want.deliveries[h]) {
			t.Fatalf("%s: host %d: delivery log differs (%d vs %d packets)",
				name, h, len(got.deliveries[h]), len(want.deliveries[h]))
		}
	}
	if got.stats != want.stats {
		t.Errorf("%s: fabric stats %+v, want %+v", name, got.stats, want.stats)
	}
	if got.faults != want.faults {
		t.Errorf("%s: fault stats %+v, want %+v", name, got.faults, want.faults)
	}
	if !reflect.DeepEqual(got.portDrops, want.portDrops) || !reflect.DeepEqual(got.portFwd, want.portFwd) {
		t.Errorf("%s: per-port drop or forward counters differ", name)
	}
	if !reflect.DeepEqual(got.records, want.records) {
		t.Errorf("%s: path records differ", name)
	}
	if !reflect.DeepEqual(got.agg, want.agg) || !reflect.DeepEqual(got.occ, want.occ) {
		t.Errorf("%s: telemetry aggregate or occupancy series differ", name)
	}
}

// TestInjectStreamsMatchesSortedConcat injects per-host time-sorted
// streams, some empty, with heavy same-time ties across streams, once
// by InjectStreams and once by InjectSorted over their concatenation
// after a stable sort by time, through runTwoWindows' faulted,
// telemetered fabric in both ECMP modes, and requires every observable
// outcome to be identical. The second window is injected once the
// engine has reached its offset, so no header is clamped.
func TestInjectStreamsMatchesSortedConcat(t *testing.T) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	r := rand.New(rand.NewSource(5))
	// The generator of TestInjectSortedMatchesPerHeaderAt on a 1 ms grid,
	// with half the packets sent to one host (an incast that overflows
	// its RSW port), dealt at random into 14 streams; streams 2, 7 and
	// 12 stay empty.
	hot := topo.Racks[2].Host(0)
	streams := make([][]packet.Header, 14)
	for i := 0; i < 6000; i++ {
		k := r.Intn(len(streams))
		if k%5 == 2 {
			k++
		}
		src := topo.Racks[r.Intn(2)].Host(r.Intn(int(topo.Racks[0].NumHosts)))
		dst := topology.HostID(r.Intn(topo.NumHosts()))
		if r.Intn(2) == 0 {
			dst = hot
		}
		streams[k] = append(streams[k], packet.Header{
			Time: Time(r.Intn(int(injectHorizon/Millisecond))) * Millisecond,
			Key: packet.FlowKey{
				Src: topo.Addr(src), Dst: topo.Addr(dst),
				SrcPort: uint16(1000 + r.Intn(64)), DstPort: 80, Proto: packet.TCP,
			},
			Size: uint32(64 + r.Intn(1437)),
		})
	}
	var concat []packet.Header
	for _, hs := range streams {
		packet.SortByTime(hs)
		concat = append(concat, hs...)
	}
	packet.SortByTime(concat)
	for _, noReroute := range []bool{false, true} {
		want := runTwoWindows(t, topo, noReroute, injectHorizon, func(f *Fabric, offset Time) {
			f.InjectSorted(concat, offset)
		})
		got := runTwoWindows(t, topo, noReroute, injectHorizon, func(f *Fabric, offset Time) {
			f.InjectStreams(streams, offset)
		})
		compareOutcomes(t, noReroute, got, want)
	}
}

// TestInjectStreamsPanicsOnClamp pins InjectStreams' precondition: a
// stream that starts before the engine's current time would be clamped,
// so the call panics and injects nothing, not even the streams before
// it.
func TestInjectStreamsPanicsOnClamp(t *testing.T) {
	eng, f, topo := newTestFabric(t)
	src, dst := pickPair(t, topo, topology.IntraCluster)
	hdr := packet.Header{Key: packet.FlowKey{Src: topo.Addr(src), Dst: topo.Addr(dst), Proto: packet.TCP}, Size: 1000}
	eng.Run(Second)
	late, early := hdr, hdr
	late.Time, early.Time = 2*Second, Second/2
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a stream starting in the past")
		}
		if n := eng.Pending(); n != 0 {
			t.Fatalf("%d events pending after the panic, want 0", n)
		}
	}()
	f.InjectStreams([][]packet.Header{{late}, nil, {early, late}}, 0)
}

// TestInjectDrainZeroAlloc pins the packet hot path: once the engine's
// runs and packet free list are warm, injecting and draining a packet
// allocates nothing, along a cross-cluster and a cross-datacenter path.
func TestInjectDrainZeroAlloc(t *testing.T) {
	for _, loc := range []topology.Locality{topology.IntraDatacenter, topology.InterDatacenter} {
		eng, f, topo := newTestFabric(t)
		src, dst := pickPair(t, topo, loc)
		hdr := packet.Header{
			Key:  packet.FlowKey{Src: topo.Addr(src), Dst: topo.Addr(dst), SrcPort: 4000, DstPort: 80, Proto: packet.TCP},
			Size: 1500,
		}
		f.Inject(hdr)
		eng.Run(Second)
		allocs := testing.AllocsPerRun(200, func() {
			f.Inject(hdr)
			eng.Run(eng.Now() + Second)
		})
		if allocs != 0 {
			t.Errorf("%v: %.2f allocs per injected and drained packet, want 0", loc, allocs)
		}
		if f.Sink(dst).Packets != 202 {
			t.Errorf("%v: delivered %d packets, want 202", loc, f.Sink(dst).Packets)
		}
	}
}
