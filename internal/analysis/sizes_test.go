package analysis

import (
	"fmt"
	"slices"
	"testing"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/services"
	"fbdcnet/internal/stats"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// TestPacketSizesMatchesSample feeds every role's generated trace, in
// batches and per packet, to PacketSizes and to a stats.Sample of every
// packet's size, the accumulator it replaced, and requires the same
// sorted values, quantiles, fractions and audit fold. A second batch
// after the first Sample call must invalidate the built sample.
func TestPacketSizesMatchesSample(t *testing.T) {
	topo := tinyTopo(t)
	pick := services.NewPicker(topo)
	for _, role := range topology.Roles {
		var hs []packet.Header
		services.NewTrace(pick, topo.HostsByRole(role)[0], 7, services.DefaultParams(),
			workload.CollectorFunc(func(h packet.Header) { hs = append(hs, h) })).Run(2 * netsim.Second)
		ref := stats.NewSample(0)
		for _, h := range hs {
			ref.Add(float64(h.Size))
		}
		ps := NewPacketSizes()
		half := len(hs) / 2
		ps.Packets(hs[:half])
		if got := ps.Sample().N(); got != half {
			t.Fatalf("%v: %d sizes after the first batch, want %d", role, got, half)
		}
		for _, h := range hs[half:] {
			ps.Packet(h)
		}
		label := fmt.Sprintf("%v (%d packets)", role, len(hs))
		got := ps.Sample()
		if !slices.Equal(got.Values(), ref.Values()) {
			t.Fatalf("%s: sorted sizes differ", label)
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			if got.Quantile(q) != ref.Quantile(q) {
				t.Errorf("%s: quantile %v is %v, want %v", label, q, got.Quantile(q), ref.Quantile(q))
			}
		}
		if got.FracBelow(100) != ref.FracBelow(100) || got.Sum() != ref.Sum() {
			t.Errorf("%s: FracBelow or Sum differ", label)
		}
		var a, b audit.Hash
		ps.FoldAudit(&a)
		foldSample(&b, ref)
		if a.Sum() != b.Sum() {
			t.Errorf("%s: audit fold differs from the sample's", label)
		}
	}
}
