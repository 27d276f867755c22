package services

import (
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// installHadoop models a Hadoop node's distinct job phases (§4.2): quiet
// computation periods with only control traffic, and busy shuffle/output
// periods of many short-but-occasionally-huge transfers, mostly rack- and
// cluster-local. Every transfer is a fresh connection (no pooling in the
// data plane), producing the short flows of Fig. 6c/7c and the bimodal
// ACK/MTU packet sizes of Fig. 12.
func (t *Trace) installHadoop() {
	g, p := t.G, t.P
	self := g.Host

	// Phase alternation with log-normal-ish durations (exponential keeps
	// the tail simple; observed variability comes from job mix anyway).
	// Start mid-phase, busy with the same duty-cycle probability the
	// steady state would give.
	duty := p.HadoopBusyMeanSec / (p.HadoopBusyMeanSec + p.HadoopQuietMeanSec)
	t.phase(g.R.Bool(duty))

	// Data transfers during busy phases.
	g.Poisson(p.HadoopBusyFlowPerSec, func() {
		if !t.busy {
			return
		}
		peer := t.pk.HadoopPeer(g.R, self, p.HadoopRackLocalFrac)
		t.hadoopTransfer(peer, int(hadoopFlowBytes.Sample(g.R)), g.R.Bool(0.5))
	})

	// Control/heartbeat traffic runs in every phase.
	g.Poisson(p.HadoopQuietFlowPerSec, func() {
		peer := t.pk.HadoopPeer(g.R, self, 0.2)
		t.hadoopTransfer(peer, int(hadoopControlBytes.Sample(g.R)), g.R.Bool(0.5))
	})
}

// phase enters a busy or quiet phase and schedules the next one.
func (t *Trace) phase(busy bool) {
	t.busy = busy
	mean, next := t.P.HadoopQuietMeanSec, kindBusy
	if busy {
		mean, next = t.P.HadoopBusyMeanSec, kindQuiet
	}
	t.after(netsim.Time(t.G.R.Exp()*mean*float64(netsim.Second)), next, 0, 0)
}

// hadoopTransfer moves size bytes over a fresh connection in chunked
// application writes with pauses between chunks, then closes. Outbound
// and inbound transfers are both synthesized so the mirror sees both
// shuffle directions.
func (t *Trace) hadoopTransfer(peer topology.HostID, size int, outbound bool) {
	kind := kindChunkOut
	var c = t.G.NewConn(peer, PortHadoop, true)
	if !outbound {
		c, kind = t.G.NewInboundConn(peer, PortHadoopIn, true), kindChunkIn
	}
	// Data begins one RTT after the handshake.
	t.after(t.G.RTT(peer), kind, c.ID(), int64(size))
}

// chunk moves the next application write of a transfer with remaining
// bytes left, then schedules the one after it or the close.
func (t *Trace) chunk(c *workload.Conn, remaining int64, outbound bool) {
	g, p := t.G, t.P
	n := int64(p.HadoopChunkBytes)
	if n <= 0 {
		n = 64 << 10
	}
	n = min(n, remaining)
	if outbound {
		c.SendMsg(int(n))
	} else {
		c.RecvMsg(int(n))
	}
	if remaining -= n; remaining > 0 {
		kind := kindChunkIn
		if outbound {
			kind = kindChunkOut
		}
		gapMean := p.HadoopChunkGapMs * float64(netsim.Millisecond)
		t.after(netsim.Time(g.R.Exp()*gapMean), kind, c.ID(), remaining)
		return
	}
	c.CloseAfter(netsim.Time(g.R.Exp() * float64(2*netsim.Millisecond)))
}
