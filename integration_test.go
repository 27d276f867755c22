// Integration tests spanning the full pipeline: service generation →
// mirror trace file → replay → analyses, and generation → fbflow
// sampling → dataset. These exercise the same multi-package paths the
// experiments use, with exact-equality checks that the storage and
// sampling layers are transparent.
package fbdcnet

import (
	"bytes"
	"math"
	"testing"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/mirror"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

func integrationTopo(t *testing.T) (*topology.Topology, *services.Picker) {
	t.Helper()
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	pk := services.NewPicker(topo)
	if err := pk.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo, pk
}

// TestMirrorRoundTripPreservesAnalyses writes a live cache-follower trace
// through the mirror format and verifies that analyses over the replayed
// trace match analyses over the live stream exactly.
func TestMirrorRoundTripPreservesAnalyses(t *testing.T) {
	topo, pk := integrationTopo(t)
	host := topo.HostsByRole(topology.RoleCacheFollower)[0]

	var buf bytes.Buffer
	w, err := mirror.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	liveMix := analysis.NewServiceMix(topo, host)
	liveSizes := analysis.NewPacketSizes()
	tr := services.NewTrace(pk, host, 404, services.DefaultParams(),
		workload.Fanout{w, liveMix, liveSizes})
	tr.Run(5 * netsim.Second)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != tr.Emitted() {
		t.Fatalf("writer recorded %d of %d packets", w.Count(), tr.Emitted())
	}

	r, err := mirror.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayMix := analysis.NewServiceMix(topo, host)
	replaySizes := analysis.NewPacketSizes()
	n := int64(0)
	err = r.ForEach(func(h packet.Header) {
		replayMix.Packet(h)
		replaySizes.Packet(h)
		n++
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != tr.Emitted() {
		t.Fatalf("replayed %d of %d packets", n, tr.Emitted())
	}
	live, replay := liveMix.Share(), replayMix.Share()
	for role, v := range live {
		if replay[role] != v {
			t.Fatalf("service mix diverged after round trip: %v vs %v", live, replay)
		}
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if liveSizes.Sample().Quantile(q) != replaySizes.Sample().Quantile(q) {
			t.Fatalf("packet size q%.2f diverged after round trip", q)
		}
	}
}

// TestFbflowSamplingEstimatesTrueBytes runs a live trace through a
// sampling agent and checks the weighted byte estimate converges on the
// true volume.
func TestFbflowSamplingEstimatesTrueBytes(t *testing.T) {
	topo, pk := integrationTopo(t)
	host := topo.HostsByRole(topology.RoleWeb)[0]

	part := fbflow.NewPartial()
	// A modest rate keeps the sampling estimate's variance testable.
	agent := fbflow.NewAgent(fbflow.NewTagger(topo), part, 100, 7, func() int64 { return 0 })

	trueBytes := int64(0)
	counter := workload.CollectorFunc(func(h packet.Header) { trueBytes += int64(h.Size) })
	tr := services.NewTrace(pk, host, 505, services.DefaultParams(),
		workload.Fanout{agent, counter})
	tr.Run(20 * netsim.Second)
	ds := fbflow.NewDataset()
	ds.MergePartial(part)

	est := ds.TotalBytes()
	if math.Abs(est-float64(trueBytes)) > 0.1*float64(trueBytes) {
		t.Fatalf("sampled estimate %.0f vs true %d (>10%% off)", est, trueBytes)
	}
}

// TestFabricCarriesTrace injects a full mirror trace into the simulated
// fabric and verifies byte conservation: everything injected is either
// delivered to the right sink or accounted as a drop.
func TestFabricCarriesTrace(t *testing.T) {
	topo, pk := integrationTopo(t)
	host := topo.HostsByRole(topology.RoleWeb)[0]

	eng := &netsim.Engine{}
	fabric := netsim.NewFabric(eng, topo, netsim.DefaultFabricConfig())
	var injected int64
	tr := services.NewTrace(pk, host, 606, services.DefaultParams(),
		workload.CollectorFunc(func(h packet.Header) {
			injected++
			hh := h
			eng.At(hh.Time, func() { fabric.Inject(hh) })
		}))
	tr.Run(2 * netsim.Second)
	eng.Run(3 * netsim.Second)

	delivered := int64(0)
	for i := 0; i < topo.NumHosts(); i++ {
		delivered += fabric.Sink(topology.HostID(i)).Packets
	}
	dropped := int64(0)
	for r := range topo.Racks {
		dropped += fabric.RSW(r).Drops()
	}
	if delivered+dropped != fabric.Injected() {
		t.Fatalf("conservation violated: %d delivered + %d dropped != %d injected",
			delivered, dropped, fabric.Injected())
	}
	if fabric.Injected() != injected {
		t.Fatalf("fabric injected %d of %d generated", fabric.Injected(), injected)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestECMPSpreadsAcrossPosts verifies the fabric's hash-based multipath:
// many flows between two fixed hosts in different racks should use all
// four cluster-switch posts.
func TestECMPSpreadsAcrossPosts(t *testing.T) {
	topo, _ := integrationTopo(t)
	eng := &netsim.Engine{}
	fabric := netsim.NewFabric(eng, topo, netsim.DefaultFabricConfig())

	// Find an intra-cluster, inter-rack pair.
	var src, dst topology.HostID
	found := false
	for i := 0; i < topo.NumHosts() && !found; i++ {
		for j := 0; j < topo.NumHosts(); j++ {
			if topo.Locality(topology.HostID(i), topology.HostID(j)) == topology.IntraCluster {
				src, dst, found = topology.HostID(i), topology.HostID(j), true
				break
			}
		}
	}
	if !found {
		t.Fatal("no intra-cluster pair")
	}

	rack := topo.HostRack(src)
	before := make([]int64, 4)
	for p := 0; p < 4; p++ {
		// Uplink byte counters start at zero; sample after injection.
		before[p] = 0
	}
	for port := 0; port < 1000; port++ {
		fabric.Inject(packet.Header{
			Key: packet.FlowKey{
				Src: topo.Addr(src), Dst: topo.Addr(dst),
				SrcPort: uint16(10000 + port), DstPort: 80, Proto: packet.TCP,
			},
			Size: 100,
		})
	}
	eng.Run(10 * netsim.Second)

	links := fabric.LinksByTier(netsim.TierRSWCSW)
	used := 0
	for p := 0; p < 4; p++ {
		if links[rack*4+p].BytesTx() > 0 {
			used++
		}
	}
	if used != 4 {
		t.Fatalf("ECMP used %d of 4 posts", used)
	}
}
