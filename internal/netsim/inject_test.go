package netsim

import (
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
// observable outcome to be identical. The fabric has shallow RSW
// buffers (buffer drops), csw-down and link-flap fault schedules
// (rerouting, fault drops of queued packets, retransmissions), telemetry
// sampling of every flow and queue sampling. The second window is scheduled while the first is still
// running, so part of it lies in the past and is clamped to the current
// time. Both ECMP modes run: rerouting around the dead elements, and
// the no-reroute ablation, which drops and retransmits into them.
// Neither injection may write to the header slice.
func TestInjectSortedMatchesPerHeaderAt(t *testing.T) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	const horizon = 20 * Millisecond
	focus := topo.Racks[0].Host(0)
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
		eng := &Engine{}
		cfg := DefaultFabricConfig()
		cfg.RSWBufBytes = 48 << 10
		f := NewFabric(eng, topo, cfg)
		f.DisableReroute = noReroute
		ts := telemetry.NewSink(7, 1)
		f.AttachTelemetry(ts)
		for _, sc := range []string{ScenarioCSWDown, ScenarioLinkFlap} {
			sched, err := NewFaultSchedule(sc, topo, focus, 7, 2*horizon)
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
		inject := func(offset Time) {
			if sorted {
				f.InjectSorted(hdrs, offset)
				return
			}
			for _, h := range hdrs {
				h.Time += offset
				eng.At(h.Time, func() { f.Inject(h) })
			}
		}
		inject(0)
		eng.Run(horizon * 3 / 2)
		inject(horizon)
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
		for h := range want.deliveries {
			if !reflect.DeepEqual(got.deliveries[h], want.deliveries[h]) {
				t.Fatalf("noReroute=%v: host %d: delivery log differs (%d vs %d packets)",
					noReroute, h, len(got.deliveries[h]), len(want.deliveries[h]))
			}
		}
		if got.stats != want.stats {
			t.Errorf("noReroute=%v: fabric stats %+v, want %+v", noReroute, got.stats, want.stats)
		}
		if got.faults != want.faults {
			t.Errorf("noReroute=%v: fault stats %+v, want %+v", noReroute, got.faults, want.faults)
		}
		if !reflect.DeepEqual(got.portDrops, want.portDrops) || !reflect.DeepEqual(got.portFwd, want.portFwd) {
			t.Errorf("noReroute=%v: per-port drop or forward counters differ", noReroute)
		}
		if !reflect.DeepEqual(got.records, want.records) {
			t.Errorf("noReroute=%v: path records differ", noReroute)
		}
		if !reflect.DeepEqual(got.agg, want.agg) || !reflect.DeepEqual(got.occ, want.occ) {
			t.Errorf("noReroute=%v: telemetry aggregate or occupancy series differ", noReroute)
		}
	}
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
