package services

import (
	"fmt"

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
// The role's behaviour is a program of typed events (see the kind
// constants) run by handle: each event names a pooled or ephemeral
// connection by its slab index in the Gen, and carries at most one
// argument, so no step of the model costs a closure.
type Trace struct {
	G  *workload.Gen
	P  Params
	pk *Picker

	// conns is the connection pool, keyed by packed
	// (peer, port, direction, lane) — see connPack.
	conns openhash.Table[*workload.Conn]
	// hotMul is the current read-rate multiplier on a cache follower due
	// to hot objects (§5.2).
	hotMul float64
	// busy is a Hadoop node's job phase.
	busy bool
	// pick draws the peer of a Web server's cache operations or of a
	// cache follower's requests.
	pick func() topology.HostID
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

// install starts the behaviour of the Gen host's role.
func (t *Trace) install() {
	t.hotMul, t.busy, t.pick = 1, false, nil
	switch role := t.pk.Topo.HostRole(t.G.Host); role {
	case topology.RoleWeb:
		t.installWeb()
	case topology.RoleCacheFollower:
		t.installCacheFollower()
	case topology.RoleCacheLeader:
		t.installCacheLeader()
	case topology.RoleHadoop:
		t.installHadoop()
	case topology.RoleMultifeed:
		t.installMultifeed()
	case topology.RoleSLB:
		t.installSLB()
	case topology.RoleDB:
		t.installDB()
	case topology.RoleMisc:
		t.installMisc()
	default:
		panic(fmt.Sprintf("services: no model for role %v", role))
	}
}

// The model's event kinds. A is a connection's ID unless noted.
const (
	kindSend     = workload.KindModel + iota // send a replies[B] message
	kindRecv                                 // receive a replies[B] message
	kindEphReq                               // ephemeral RPC request, B is the RTT
	kindEphResp                              // ephemeral RPC response, then close
	kindChurnReq                             // pooled churn RPC request, B is the RTT
	kindBeat                                 // pool heartbeat, B is the deadline
	kindWebRead                              // a Web cache read (no A)
	kindWebWrite                             // a Web cache write (no A)
	kindWebMF                                // a Web Multifeed op (no A)
	kindWebDone                              // reply to the SLB on A
	kindRead                                 // a cache follower read (no A)
	kindHotEnd                               // a hot object is mitigated (no A)
	kindBusy                                 // a Hadoop busy phase begins (no A)
	kindQuiet                                // a Hadoop quiet phase begins (no A)
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
	case kindWebRead:
		t.rpcOut(t.pick(), PortCache, cacheReadReqBytes, replyCacheRead)
	case kindWebWrite:
		t.rpcOut(t.pick(), PortCache, cacheWriteBytes, replyCacheWriteAck)
	case kindWebMF:
		t.rpcOut(t.pk.ClusterPeer(g.R, g.Host, topology.RoleMultifeed), PortMF, mfReqBytes, replyMF)
	case kindWebDone: // control bytes to the SLB, the page toward the edge
		g.Conn(ev.A).SendMsg(int(slbControlBytes.Sample(g.R)))
		edge := t.pk.DCPeer(g.R, g.Host, topology.RoleMisc)
		if g.R.Bool(0.7) {
			edge = t.pk.RemotePeer(g.R, g.Host, topology.RoleMisc)
		}
		t.conn(edge, PortEgress, false).SendMsg(int(egressReplyBytes.Sample(g.R)))
	case kindRead: // at a rate scaled by the hot-object multiplier
		t.rpcIn(t.pick(), PortCache, cacheReadReqBytes, replyCacheRead)
		mean := float64(netsim.Second) / (t.P.CacheReadPerSec * t.hotMul)
		t.after(netsim.Time(g.R.Exp()*mean), kindRead, 0, 0)
	case kindHotEnd:
		t.hotMul = 1
	case kindBusy, kindQuiet:
		t.phase(ev.Kind == kindBusy)
	case kindChunkOut, kindChunkIn:
		t.chunk(g.Conn(ev.A), ev.B, ev.Kind == kindChunkOut)
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
// connection the caller must Close.
func (t *Trace) conn(peer topology.HostID, port uint16, inbound bool) *workload.Conn {
	if t.P.DisableConnectionPooling {
		if inbound {
			return t.G.NewInboundConn(peer, port, true)
		}
		return t.G.NewConn(peer, port, true)
	}
	// The pooled path creates connections pre-established (no handshake
	// emission), so nothing can touch the table between Slot and the
	// store below.
	slot := t.conns.Slot(connPack(peer, port, inbound, uint8(t.G.R.Intn(poolLanes))))
	if c := *slot; c != nil {
		return c
	}
	var c *workload.Conn
	if inbound {
		c = t.G.NewInboundConn(peer, port, false)
	} else {
		c = t.G.NewConn(peer, port, false)
	}
	*slot = c
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

// ephemeralRPC opens a short-lived connection to a long-tail service
// peer, exchanges one request/response, and closes — the non-pooled long
// tail visible in the SYN interarrival distribution (Fig. 14).
func (t *Trace) ephemeralRPC(peer topology.HostID) {
	c := t.G.NewConn(peer, PortMisc, true)
	rtt := t.G.RTT(peer)
	t.after(rtt, kindEphReq, c.ID(), int64(rtt))
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

// churnRPC models connection-pool churn toward a long-tail service
// peer: with probability pStay the new connection joins the pool
// (heartbeats until its lifetime ends); otherwise it behaves like
// ephemeralRPC.
func (t *Trace) churnRPC(peer topology.HostID, pStay float64) {
	if !t.G.R.Bool(pStay) {
		t.ephemeralRPC(peer)
		return
	}
	c := t.G.NewConn(peer, PortMisc, true)
	rtt := t.G.RTT(peer)
	t.after(rtt, kindChurnReq, c.ID(), int64(rtt))
	t.poolMember(c, t.G.R.Exp()*poolLifetimeMean)
}

// prePool creates the steady-state standing pool a capture would find
// already open: ratePerSec×pStay×poolLifetime members, pre-established
// (no SYN), each with a residual exponential lifetime. This is what puts
// "100s to 1000s of concurrent connections" (§6.4) on Web and cache
// hosts and the large at-capture-start mass in Fig. 7.
func (t *Trace) prePool(pickPeer func() topology.HostID, port uint16, ratePerSec, pStay float64) {
	n := int(ratePerSec * pStay * poolLifetimeMean)
	const maxPool = 20000
	if n > maxPool {
		n = maxPool
	}
	for i := 0; i < n; i++ {
		c := t.G.NewConn(pickPeer(), port, false)
		// Residual lifetime of a stationary renewal process is again
		// exponential with the same mean.
		t.poolMember(c, t.G.R.Exp()*poolLifetimeMean)
	}
}

// ---------------------------------------------------------------------
// Web server (§3.2, Fig. 2): stateless request fan-out.

func (t *Trace) installWeb() {
	g, p := t.G, t.P
	self := g.Host
	caches := t.pk.InCluster(topology.RoleCacheFollower, g.Topo.HostCluster(self))
	if caches.Len() == 0 {
		caches = t.pk.Fleet(topology.RoleCacheFollower)
	}
	// PartitionUsers ablation: restrict 90% of cache ops to a small
	// deterministic shard of the cache tier (the §4.3 counterfactual).
	shard := caches
	if p.PartitionUsers && caches.Len() >= 4 {
		n := caches.Len() / 4
		start := int(self) % (caches.Len() - n + 1)
		shard = caches.Slice(start, start+n)
	}
	t.pick = func() topology.HostID {
		set := caches
		if p.PartitionUsers && g.R.Float64() < 0.9 {
			set = shard
		}
		return set.At(g.R.Intn(set.Len()))
	}

	// One user request: SLB in → cache/MF fan-out → reply toward the edge.
	g.Poisson(p.WebUserReqPerSec, func() {
		slb := t.pk.ClusterPeer(g.R, self, topology.RoleSLB)
		slbConn := t.conn(slb, PortWeb, true)
		slbConn.RecvMsg(int(slbRequestBytes.Sample(g.R)))

		reads := poissonCount(g, p.WebCacheReadsPerReq)
		for i := 0; i < reads; i++ {
			t.after(netsim.Time(g.R.Exp()*float64(2*netsim.Millisecond)), kindWebRead, 0, 0)
		}
		writes := poissonCount(g, p.WebCacheWritesPerReq)
		for i := 0; i < writes; i++ {
			t.after(netsim.Time(g.R.Exp()*float64(4*netsim.Millisecond)), kindWebWrite, 0, 0)
		}
		mfOps := poissonCount(g, p.WebMFOpsPerReq)
		for i := 0; i < mfOps; i++ {
			t.after(netsim.Time(g.R.Exp()*float64(2*netsim.Millisecond)), kindWebMF, 0, 0)
		}
		// Assemble and reply (kindWebDone) once the fan-out is back.
		done := netsim.Time(8*netsim.Millisecond) + netsim.Time(g.R.Exp()*float64(8*netsim.Millisecond))
		t.after(done, kindWebDone, slbConn.ID(), 0)
	})

	// Service chatter drives the Web SYN arrival rate: a third of new
	// connections join pools and persist.
	t.prePool(func() topology.HostID { return t.pk.MiscPeer(g.R, self) },
		PortMisc, p.WebEphemeralPerSec, 0.35)
	g.Poisson(p.WebEphemeralPerSec, func() {
		t.churnRPC(t.pk.MiscPeer(g.R, self), 0.35)
	})
}

// ---------------------------------------------------------------------
// Cache follower: read-mostly responses to the cluster's Web tier.

func (t *Trace) installCacheFollower() {
	g, p := t.G, t.P
	self := g.Host
	webs := t.pk.InCluster(topology.RoleWeb, g.Topo.HostCluster(self))
	if webs.Len() == 0 {
		webs = t.pk.Fleet(topology.RoleWeb)
	}
	// Load balancing spreads user requests across all Web servers, so the
	// follower's per-web request stream is uniform (Fig. 8b/8c, Fig. 9).
	// The ablation routes requests by session affinity instead: a rotating
	// hot subset of Web servers concentrates most of the demand, and the
	// hot set drifts every couple of seconds as sessions come and go —
	// per-rack rates then swing far from their medians.
	t.pick = func() topology.HostID {
		if p.DisableLoadBalancing && g.R.Bool(0.85) {
			// Hot block of adjacent Web servers (one rack's worth,
			// since peer lists are rack-ordered), drifting every 2 s.
			block := webs.Len() / 8
			if block < 1 {
				block = 1
			}
			epoch := uint64(g.Eng.Now() / (2 * netsim.Second))
			start := int((epoch*2654435761 + uint64(g.Host)) % uint64(webs.Len()-block+1))
			return webs.At(start + g.R.Intn(block))
		}
		return webs.At(g.R.Intn(webs.Len()))
	}

	// Read service loop; rate scaled by the hot-object multiplier.
	t.after(netsim.Time(g.R.Exp()*float64(netsim.Second)/p.CacheReadPerSec), kindRead, 0, 0)

	g.Poisson(p.CacheWritePerSec, func() {
		t.rpcIn(t.pick(), PortCache, cacheWriteBytes, replyCacheWriteAck)
	})

	// Coherency with leaders: miss fills out-of-cluster (§4.2: leaders
	// engage in intra- and inter-datacenter traffic).
	g.Poisson(p.CacheLeaderSyncPerSec, func() {
		leader := t.pk.FleetPeer(g.R, self, topology.RoleCacheLeader, 0.6)
		if g.R.Bool(0.7) {
			t.rpcOut(leader, PortLeader, leaderSyncReqBytes, replyLeaderFill)
		} else {
			// Invalidations arrive from the leader.
			t.rpcIn(leader, PortCache, leaderInvalBytes, replyCacheWriteAck)
		}
	})

	// Hot objects: a burst of demand on this follower. Mitigation
	// (web-side caching, then replication) clips it within ~200 ms;
	// the ablation lets it run for tens of seconds (§5.2).
	g.Poisson(p.HotObjectPerSec, func() {
		if t.hotMul > 1 {
			return // already handling one
		}
		t.hotMul = p.HotObjectMultiplier
		hold := netsim.Time(200 * netsim.Millisecond)
		if p.DisableHotObjectMitigation {
			hold = netsim.Time((10 + g.R.Float64()*30) * float64(netsim.Second))
		}
		t.after(hold, kindHotEnd, 0, 0)
	})

	// Cache connection churn is dominated by pool replenishment: most new
	// connections persist (§5.1: >40% of cache flows outlive the capture).
	t.prePool(func() topology.HostID { return t.pk.MiscPeer(g.R, self) },
		PortMisc, p.CacheEphemeralPerSec, 0.7)
	g.Poisson(p.CacheEphemeralPerSec, func() {
		t.churnRPC(t.pk.MiscPeer(g.R, self), 0.7)
	})
}

// ---------------------------------------------------------------------
// Cache leader: the coherency plane of the "single geographically
// distributed instance" (§4.2) — datacenter- and fleet-wide traffic.

func (t *Trace) installCacheLeader() {
	g, p := t.G, t.P
	self := g.Host

	// Fills and invalidations toward followers in Frontend clusters
	// everywhere: ~60% same datacenter, the rest across the backbone.
	g.Poisson(p.LeaderFillPerSec, func() {
		f := t.pk.FleetPeer(g.R, self, topology.RoleCacheFollower, 0.6)
		if g.R.Bool(0.6) {
			c := t.conn(f, PortCache, false)
			c.SendMsg(int(leaderFillBytes.Sample(g.R)))
		} else {
			c := t.conn(f, PortCache, false)
			c.SendMsg(int(leaderInvalBytes.Sample(g.R)))
		}
	})

	// Misses arriving from followers; answered with fills.
	g.Poisson(p.LeaderMissInPerSec, func() {
		f := t.pk.FleetPeer(g.R, self, topology.RoleCacheFollower, 0.6)
		t.rpcIn(f, PortLeader, leaderSyncReqBytes, replyLeaderFill)
	})

	// Database reads and writes behind the misses.
	g.Poisson(p.LeaderDBOpsPerSec, func() {
		db := t.pk.FleetPeer(g.R, self, topology.RoleDB, 0.5)
		t.rpcOut(db, PortDB, dbQueryBytes, replyDBResult)
	})

	// Pushes to Multifeed aggregators.
	g.Poisson(p.LeaderMFPerSec, func() {
		mf := t.pk.DCPeer(g.R, self, topology.RoleMultifeed)
		t.conn(mf, PortMF, false).SendMsg(int(leaderFillBytes.Sample(g.R)))
	})

	// Intra-cluster coordination with sibling leaders.
	g.Poisson(p.LeaderPeerSyncPerSec, func() {
		peer := t.pk.ClusterPeer(g.R, self, topology.RoleCacheLeader)
		t.rpcOut(peer, PortLeader, leaderPeerBytes, replyLeaderPeer)
	})

	t.prePool(func() topology.HostID { return t.pk.MiscPeer(g.R, self) },
		PortMisc, p.LeaderEphemeralPerSec, 0.65)
	g.Poisson(p.LeaderEphemeralPerSec, func() {
		t.churnRPC(t.pk.MiscPeer(g.R, self), 0.65)
	})
}

// poissonCount draws a Poisson-distributed count with the given mean
// (inversion by sequential search; means here are small).
func poissonCount(g *workload.Gen, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := -mean
	k, lp := 0, 0.0
	for {
		lp += logUniform(g)
		if lp < l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// logUniform returns ln(U) for U uniform in (0,1].
func logUniform(g *workload.Gen) float64 {
	return -g.R.Exp()
}
