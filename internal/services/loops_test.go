package services

import (
	"testing"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/topology"
)

// countSink counts headers a batch at a time.
type countSink struct{ n int }

func (s *countSink) Packet(packet.Header)       { s.n++ }
func (s *countSink) Packets(hs []packet.Header) { s.n += len(hs) }

// TestTraceResetAllocs checks that a warm Trace.Reset and the install it
// runs allocate nothing for every role: the loop rows are built once per
// role and kept, and no model step, loop or Trace field is a closure.
func TestTraceResetAllocs(t *testing.T) {
	topo, pk := testTopo(t)
	sink := &countSink{}
	for _, role := range topology.Roles {
		host := firstOfRole(t, topo, role)
		tr := NewTrace(pk, host, 1, DefaultParams(), sink)
		if n := testing.AllocsPerRun(5, func() {
			tr.Reset(host, 1, sink)
			tr.Run(0)
		}); n != 0 {
			t.Errorf("%v: a warm Reset and Run(0) allocate %v objects, want 0", role, n)
		}
	}
}

// tupleFacts is what a trace shows of one 5-tuple.
type tupleFacts struct {
	syn       netsim.Time // time of the first SYN
	hasSYN    bool
	fin, data bool // a FIN; a segment carrying payload
}

// tuples indexes hdrs by 5-tuple, oriented from the monitored host.
func tuples(hdrs []packet.Header, self packet.Addr) map[packet.FlowKey]*tupleFacts {
	m := map[packet.FlowKey]*tupleFacts{}
	for _, h := range hdrs {
		k := h.Key
		if k.Src != self {
			k = k.Reverse()
		}
		f := m[k]
		if f == nil {
			f = &tupleFacts{}
			m[k] = f
		}
		switch {
		case h.Flags&packet.FlagSYN != 0:
			if !f.hasSYN {
				f.syn, f.hasSYN = netsim.Time(h.Time), true
			}
		case h.Flags&packet.FlagFIN != 0:
			f.fin = true
		case h.Size > packet.ACKSize:
			f.data = true
		}
	}
	return m
}

// TestPoolingAblationClosesConnections: with connection pooling disabled,
// every connection a role's model opens with a SYN also closes with a
// FIN, except connections opened in the trace's last second. Pool churn
// is switched off, since the connections that join a pool live for
// ~45 s by design; Hadoop never pools and its transfers can outlast a
// second (TestHadoopSYNsCarryData covers it).
func TestPoolingAblationClosesConnections(t *testing.T) {
	topo, pk := testTopo(t)
	p := DefaultParams()
	p.DisableConnectionPooling = true
	p.WebEphemeralPerSec, p.CacheEphemeralPerSec, p.LeaderEphemeralPerSec = 0, 0, 0
	const dur = 3 * netsim.Second
	for _, role := range topology.Roles {
		if role == topology.RoleHadoop {
			continue
		}
		host := firstOfRole(t, topo, role)
		tr := &trace{}
		NewTrace(pk, host, 7, p, tr).Run(dur)
		opened := 0
		for k, f := range tuples(tr.hdrs, topo.Addr(host)) {
			if !f.hasSYN || f.syn >= dur-netsim.Second {
				continue
			}
			opened++
			if !f.fin {
				t.Fatalf("%v: %v opened at %v never closes", role, k, f.syn)
			}
		}
		if opened == 0 {
			t.Fatalf("%v: no connection opened", role)
		}
	}
}

// TestHadoopSYNsCarryData: every Hadoop 5-tuple that opens with a SYN
// carries a data segment, in either direction, unless it opened in the
// trace's last second. Busy phases are kept short so that both phases
// occur within the trace.
func TestHadoopSYNsCarryData(t *testing.T) {
	topo, pk := testTopo(t)
	p := DefaultParams()
	p.HadoopBusyMeanSec, p.HadoopQuietMeanSec = 0.5, 0.5
	host := firstOfRole(t, topo, topology.RoleHadoop)
	const dur = 4 * netsim.Second
	for _, seed := range []uint64{1, 7, 42} {
		tr := &trace{}
		NewTrace(pk, host, seed, p, tr).Run(dur)
		opened := 0
		for k, f := range tuples(tr.hdrs, topo.Addr(host)) {
			if !f.hasSYN || f.syn >= dur-netsim.Second {
				continue
			}
			opened++
			if !f.data {
				t.Fatalf("seed %d: %v opened at %v carries no data", seed, k, f.syn)
			}
		}
		if opened < 100 {
			t.Fatalf("seed %d: only %d transfers opened", seed, opened)
		}
	}
}
