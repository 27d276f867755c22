package analysis

import (
	"testing"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/topology"
)

// allocBatch builds nPkts headers cycling over nFlows distinct outbound
// flows of host 0, one per microsecond starting at t0.
func allocBatch(t *testing.T, topo *topology.Topology, nFlows, nPkts int, t0 netsim.Time) []packet.Header {
	t.Helper()
	batch := make([]packet.Header, 0, nPkts)
	for i := 0; i < nPkts; i++ {
		f := i % nFlows
		batch = append(batch, mk(topo, 0, topology.HostID(1+f%(topo.NumHosts()-1)),
			t0+netsim.Time(i)*netsim.Microsecond, 1000, uint16(1000+f), 80, 0))
	}
	return batch
}

// TestFlowsBatchZeroAlloc pins the steady-state Flows batch path at zero
// allocations per packet: once the packed table and flow slab have grown
// to cover the working set, feeding further batches must not allocate.
func TestFlowsBatchZeroAlloc(t *testing.T) {
	topo := tinyTopo(t)
	fl := NewFlows(topo, 0)
	batch := allocBatch(t, topo, 64, 4096, 0)
	fl.Packets(batch) // warm: create flows, grow table and slab
	if got := testing.AllocsPerRun(50, func() { fl.Packets(batch) }); got != 0 {
		t.Fatalf("Flows.Packets allocated %.2f allocs/run over %d packets, want 0", got, len(batch))
	}
}

// TestHeavyHittersBinRollZeroAlloc pins the heavy-hitter batch path —
// including the per-bin roll with its covering-set sort, the folds into
// coarser bins and levels, and the persistence intersection — at
// (amortized) zero allocations per packet, for a stand-alone tracker and
// for the bundle's nine-tracker group. The only permitted residue is the
// geometric growth of the output Samples, which amortizes to well under
// one allocation per thousand packets.
func TestHeavyHittersBinRollZeroAlloc(t *testing.T) {
	topo := tinyTopo(t)
	for _, c := range []struct {
		name string
		sink interface {
			Packets([]packet.Header)
		}
	}{
		{"tracker", NewHeavyHitters(topo, 0, LevelFlow, netsim.Millisecond)},
		{"group", NewHeavyGroup(topo, 0, Levels, hhBins)},
	} {
		const nPkts = 8192 // 1 pkt/µs → a bin roll every 1000 packets
		// Warm through several full seconds so every table, scratch
		// buffer, set buffer, and sub-second arena reaches steady-state
		// capacity.
		var at netsim.Time
		for s := 0; s < 3; s++ {
			c.sink.Packets(allocBatch(t, topo, 64, nPkts, at))
			at += netsim.Second
		}
		run := 0
		got := testing.AllocsPerRun(50, func() {
			c.sink.Packets(allocBatch(t, topo, 64, nPkts, at+netsim.Time(run)*netsim.Second))
			run++
		})
		// allocBatch allocates the batch slice itself (1 alloc); everything
		// else must amortize to ~0 per packet (Sample growth residue only).
		const perPacketBudget = 0.01
		if perPkt := (got - 1) / nPkts; perPkt > perPacketBudget {
			t.Fatalf("%s: Packets allocated %.2f allocs/run (%.5f/packet) over %d packets, want ≤%.2f/packet",
				c.name, got, perPkt, nPkts, perPacketBudget)
		}
	}
}
