package services

import (
	"fbdcnet/internal/dist"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/openhash"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// Well-known destination ports of the simulated services.
const (
	PortSLB      = 443
	PortWeb      = 8080
	PortCache    = 11211
	PortLeader   = 11213
	PortMF       = 8090
	PortHadoop   = 50010
	PortDB       = 3306
	PortMisc     = 9000
	PortEgress   = 9443
	PortHadoopIn = 50011
)

// Trace synthesizes a monitored host's port-mirror capture. Create with
// NewTrace and drive with Run; Reset reuses it for another host.
//
// A role's behaviour is a table of Poisson loop rows (loopTable, built
// once per role and kept for Reset) run by one interpreter (tick), and a
// program of typed events (see the kind constants) run by handle: each
// event names a loop row, or a pooled or ephemeral connection by its slab
// index in the Gen, and carries at most one argument. No step of the model
// and no field of a Trace is a closure.
type Trace struct {
	G  *workload.Gen
	P  Params
	pk *Picker

	// conns is the connection pool, keyed by packed
	// (peer, port, direction, lane) — see connPack.
	conns openhash.Table[*workload.Conn]
	// role is the monitored host's role; tables holds each role's loop
	// rows once built.
	role   topology.Role
	tables [topology.RoleMisc + 1][]loopRow
	// peers is the set pick draws from: a Web server's cache followers
	// or a cache follower's Web servers. shard is the Web server's
	// PartitionUsers shard of peers.
	peers, shard topology.HostSet
	// hotMul is the current read-rate multiplier on a cache follower due
	// to hot objects (§5.2).
	hotMul float64
	// busy is a Hadoop node's job phase.
	busy bool
}

// connPack packs a pool key into a uint64 for the open-addressing table:
// lane in bits 0..7, direction in bit 8, port in 9..24, peer from bit 25.
// Host IDs are dense indices (< 2^38 would already be absurd), so the key
// never approaches the table's sentinel.
func connPack(peer topology.HostID, port uint16, in bool, lane uint8) uint64 {
	k := uint64(uint32(peer))<<25 | uint64(port)<<9 | uint64(lane)
	if in {
		k |= 1 << 8
	}
	return k
}

// poolLanes is the number of pooled connections kept per (peer, port)
// pair: production connection pools multiplex requests over several
// transport connections, which is why 5-tuple flow sizes vary while
// per-host aggregates are tight (Fig. 6b vs Fig. 9).
const poolLanes = 3

// NewTrace builds a generator for the given monitored host. The host's
// role determines the behaviour installed. The picker may be shared
// across traces over the same topology.
func NewTrace(pk *Picker, host topology.HostID, seed uint64, p Params, sink workload.Collector) *Trace {
	t := &Trace{G: workload.NewGen(pk.Topo, host, seed, sink), P: p, pk: pk}
	t.G.SetModelHandler(t.handle)
	t.install()
	return t
}

// Reset makes t the generator NewTrace would build for host with the
// same picker and parameters, reusing its Gen, engine and tables.
func (t *Trace) Reset(host topology.HostID, seed uint64, sink workload.Collector) {
	t.G.Reset(host, seed, sink)
	t.conns.Reset()
	t.install()
}

// install starts the behaviour of the Gen host's role: the role's own
// first draws, then each loop row in table order, a churn row's
// standing pool right before its loop.
func (t *Trace) install() {
	g, p := t.G, t.P
	t.hotMul, t.busy = 1, false
	t.role = t.pk.Topo.HostRole(g.Host)
	switch t.role {
	case topology.RoleWeb:
		t.peers = t.clusterSet(topology.RoleCacheFollower)
		// PartitionUsers ablation: restrict 90% of cache ops to a small
		// deterministic shard of the cache tier (the §4.3 counterfactual).
		t.shard = t.peers
		if n := t.peers.Len() / 4; p.PartitionUsers && n >= 1 {
			start := int(g.Host) % (t.peers.Len() - n + 1)
			t.shard = t.peers.Slice(start, start+n)
		}
	case topology.RoleCacheFollower:
		t.peers = t.clusterSet(topology.RoleWeb)
		// Read service loop; rate scaled by the hot-object multiplier.
		t.after(netsim.Time(g.R.Exp()*float64(netsim.Second)/p.CacheReadPerSec), kindRead, 0, 0)
	case topology.RoleHadoop:
		// Start mid-phase, busy with the same duty-cycle probability the
		// steady state would give.
		t.phase(g.R.Bool(p.HadoopBusyMeanSec / (p.HadoopBusyMeanSec + p.HadoopQuietMeanSec)))
	}
	rows := t.tables[t.role]
	if rows == nil {
		rows = loopTable(p, t.role)
		t.tables[t.role] = rows
	}
	for i := range rows {
		if rows[i].op == opPool {
			t.prePool(&rows[i])
		}
		g.Poisson(rows[i].rate, netsim.Event{Kind: kindRow, A: int32(i)})
	}
}

// clusterSet returns the hosts of role in the monitored host's cluster,
// or in the whole fleet if the cluster has none.
func (t *Trace) clusterSet(role topology.Role) topology.HostSet {
	if set := t.pk.InCluster(role, t.G.Topo.HostCluster(t.G.Host)); set.Len() > 0 {
		return set
	}
	return t.pk.Fleet(role)
}

// pick draws a peer from dst with Picker.sample or, if dst is nil, from
// peers: the cache follower of a Web server's cache operation or the Web
// server of a cache follower's request.
func (t *Trace) pick(dst []dstTerm) topology.HostID {
	g, set := t.G, t.peers
	if dst != nil {
		return t.pk.sample(g.R, g.Host, dst)
	}
	switch t.role {
	case topology.RoleWeb:
		if t.P.PartitionUsers && g.R.Float64() < 0.9 {
			set = t.shard
		}
	case topology.RoleCacheFollower:
		// Load balancing spreads user requests across all Web servers, so
		// the follower's per-web request stream is uniform (Fig. 8b/8c,
		// Fig. 9). The ablation routes requests by session affinity
		// instead: 85% go to a hot block of adjacent Web servers (one
		// rack's worth, since peer lists are rack-ordered) that drifts
		// every 2 s as sessions come and go, so per-rack rates swing far
		// from their medians.
		if t.P.DisableLoadBalancing && g.R.Bool(0.85) {
			block := max(set.Len()/8, 1)
			epoch := uint64(g.Eng.Now() / (2 * netsim.Second))
			start := int((epoch*2654435761 + uint64(g.Host)) % uint64(set.Len()-block+1))
			return set.At(start + g.R.Intn(block))
		}
	}
	return set.At(g.R.Intn(set.Len()))
}

// The model's event kinds. A is a connection's ID unless noted.
const (
	kindRow      = workload.KindModel + iota // one tick of loop row A
	kindSend                                 // send a replies[B] message
	kindRecv                                 // receive a replies[B] message
	kindEphReq                               // ephemeral RPC request, B is the RTT
	kindEphResp                              // ephemeral RPC response, then close
	kindChurnReq                             // pooled churn RPC request, B is the RTT
	kindBeat                                 // pool heartbeat, B is the deadline
	kindWebDone                              // reply to the SLB on A
	kindRead                                 // a cache follower read (no A)
	kindHotEnd                               // a hot object is mitigated (no A)
	kindPhase                                // a Hadoop phase begins, busy if B is 1 (no A)
	kindChunkOut                             // send a Hadoop chunk, B bytes left
	kindChunkIn                              // receive a Hadoop chunk, B bytes left
)

// after schedules an event of the model d after the current time.
func (t *Trace) after(d netsim.Time, kind uint8, a int32, b int64) {
	t.G.Eng.AfterEvent(d, netsim.Event{Kind: kind, A: a, B: b})
}

// handle runs one event of the model.
func (t *Trace) handle(ev netsim.Event) {
	g := t.G
	switch ev.Kind {
	case kindRow:
		t.tick(ev.A)
	case kindSend:
		g.Conn(ev.A).SendMsg(int(replies[ev.B].Sample(g.R)))
	case kindRecv:
		g.Conn(ev.A).RecvMsg(int(replies[ev.B].Sample(g.R)))
	case kindEphReq:
		g.Conn(ev.A).SendMsg(int(miscReqBytes.Sample(g.R)))
		t.after(netsim.Time(ev.B), kindEphResp, ev.A, 0)
	case kindEphResp:
		c := g.Conn(ev.A)
		c.RecvMsg(int(miscRespBytes.Sample(g.R)))
		c.CloseAfter(netsim.Time(g.R.Exp() * float64(5*netsim.Millisecond)))
	case kindChurnReq:
		g.Conn(ev.A).SendMsg(int(miscReqBytes.Sample(g.R)))
		t.after(netsim.Time(ev.B), kindRecv, ev.A, int64(replyMisc))
	case kindBeat: // a heartbeat, or the FIN once the deadline has passed
		c := g.Conn(ev.A)
		if g.Eng.Now() >= netsim.Time(ev.B) {
			c.Close()
			return
		}
		c.SendMsg(heartbeatMsgBytes)
		t.after(g.RTT(c.Peer), kindRecv, ev.A, int64(replyHeartbeat))
		t.after(netsim.Time(g.R.Exp()*heartbeatGapMean*float64(netsim.Second)), kindBeat, ev.A, ev.B)
	case kindWebDone: // control bytes to the SLB, the page toward the edge
		t.oneWay(g.Conn(ev.A), false, int(slbControlBytes.Sample(g.R)))
		edge := t.pk.DCPeer(g.R, g.Host, topology.RoleMisc)
		if g.R.Bool(0.7) {
			edge = t.pk.RemotePeer(g.R, g.Host, topology.RoleMisc)
		}
		c := t.conn(edge, PortEgress, false)
		t.oneWay(c, false, int(egressReplyBytes.Sample(g.R)))
	case kindRead: // at a rate scaled by the hot-object multiplier
		t.rpcIn(t.pick(nil), PortCache, cacheReadReqBytes, replyCacheRead)
		mean := float64(netsim.Second) / (t.P.CacheReadPerSec * t.hotMul)
		t.after(netsim.Time(g.R.Exp()*mean), kindRead, 0, 0)
	case kindHotEnd:
		t.hotMul = 1
	case kindPhase:
		t.phase(ev.B == 1)
	case kindChunkOut, kindChunkIn:
		t.chunk(ev)
	}
}

// Run generates the trace for the given duration.
func (t *Trace) Run(dur netsim.Time) { t.G.Run(dur) }

// Emitted returns the number of packets generated so far.
func (t *Trace) Emitted() int64 { return t.G.Emitted() }

// conn returns a pooled connection to peer on port, creating it
// pre-established on first use. Each (peer, port) pair keeps poolLanes
// connections; a random lane is used per transaction. With connection
// pooling disabled (ablation) every call opens a fresh handshaked
// connection, which the caller closes with finish.
func (t *Trace) conn(peer topology.HostID, port uint16, inbound bool) *workload.Conn {
	fresh := t.P.DisableConnectionPooling
	var slot **workload.Conn
	if !fresh {
		// A pooled connection is created pre-established (no handshake
		// emission), so nothing can touch the table between Slot and the
		// store below.
		if slot = t.conns.Slot(connPack(peer, port, inbound, uint8(t.G.R.Intn(poolLanes)))); *slot != nil {
			return *slot
		}
	}
	var c *workload.Conn
	if inbound {
		c = t.G.NewInboundConn(peer, port, fresh)
	} else {
		c = t.G.NewConn(peer, port, fresh)
	}
	if slot != nil {
		*slot = c
	}
	return c
}

// finish closes c if the pooling ablation made it ephemeral.
func (t *Trace) finish(c *workload.Conn, after netsim.Time) {
	if t.P.DisableConnectionPooling {
		c.CloseAfter(after)
	}
}

// rpcOut issues one outbound request/response exchange to peer.
func (t *Trace) rpcOut(peer topology.HostID, port uint16, req dist.Dist, resp reply) {
	c := t.conn(peer, port, false)
	c.SendMsg(int(req.Sample(t.G.R)))
	rtt := t.G.RTT(peer)
	svc := netsim.Time(50*netsim.Microsecond) + netsim.Time(t.G.R.Exp()*float64(100*netsim.Microsecond))
	t.after(rtt+svc, kindRecv, c.ID(), int64(resp))
	t.finish(c, rtt+svc+netsim.Millisecond)
}

// rpcIn serves one inbound request/response exchange from peer.
func (t *Trace) rpcIn(peer topology.HostID, port uint16, req dist.Dist, resp reply) {
	c := t.conn(peer, port, true)
	c.RecvMsg(int(req.Sample(t.G.R)))
	svc := netsim.Time(40*netsim.Microsecond) + netsim.Time(t.G.R.Exp()*float64(80*netsim.Microsecond))
	t.after(svc, kindSend, c.ID(), int64(resp))
	t.finish(c, svc+netsim.Millisecond)
}

// oneWay moves one message of size bytes on c, a connection from conn:
// sent by the monitored host, or received if in. A connection the
// pooling ablation opened for it closes 1 ms later.
func (t *Trace) oneWay(c *workload.Conn, in bool, size int) {
	if in {
		c.RecvMsg(size)
	} else {
		c.SendMsg(size)
	}
	t.finish(c, netsim.Millisecond)
}

// Connection-pool lifetime model (§5.1): flows are "long-lived but not
// very heavy". Pool members idle at heartbeat cadence between requests
// and are replaced after poolLifetime on average, so SYNs keep arriving
// every few milliseconds (Fig. 14) while a large share of observed flows
// spans minutes and outlives the capture (Fig. 7).
const (
	poolLifetimeMean  = 45.0 // seconds a pool member lives
	heartbeatGapMean  = 12.0 // seconds between keepalive exchanges
	heartbeatMsgBytes = 120
)

// poolMember runs one pooled connection's life: periodic heartbeats until
// its exponential lifetime expires, then a FIN.
func (t *Trace) poolMember(c *workload.Conn, lifetimeSec float64) {
	deadline := t.G.Eng.Now() + netsim.Time(lifetimeSec*float64(netsim.Second))
	t.after(netsim.Time(t.G.R.Exp()*heartbeatGapMean*float64(netsim.Second)), kindBeat, c.ID(), int64(deadline))
}

// prePool creates the steady-state standing pool a capture would find
// already open for pool row r: rate×share×poolLifetime members,
// pre-established (no SYN), each with a residual exponential lifetime.
// This is what puts "100s to 1000s of concurrent connections" (§6.4) on
// Web and cache hosts and the large at-capture-start mass in Fig. 7.
func (t *Trace) prePool(r *loopRow) {
	n := min(int(r.rate*r.share*poolLifetimeMean), 20000)
	for i := 0; i < n; i++ {
		c := t.G.NewConn(t.pick(r.dst), PortMisc, false)
		// Residual lifetime of a stationary renewal process is again
		// exponential with the same mean.
		t.poolMember(c, t.G.R.Exp()*poolLifetimeMean)
	}
}

// poissonCount draws a Poisson-distributed count with the given mean
// (inversion by sequential search; means here are small).
func poissonCount(g *workload.Gen, mean float64) int {
	if mean <= 0 {
		return 0
	}
	k := 0 // the number of partial sums of ln U, U uniform in (0,1], above -mean
	for lp := -g.R.Exp(); lp >= -mean; lp -= g.R.Exp() {
		if k++; k > 1000 {
			break
		}
	}
	return k
}
