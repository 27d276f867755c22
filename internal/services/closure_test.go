package services

import (
	"fmt"
	"testing"

	"fbdcnet/internal/dist"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// This file keeps the service models as they were before typed events:
// every step a closure scheduled on the engine. It is the draw-for-draw
// oracle of the typed models (TestTraceMatchesClosureSchedule). Only
// the helpers that schedule are copied, and Poisson loops are closures
// too (poisson); closureTrace gets conn and the Gen's handshakes and
// closes (whose own closure forms are the workload package's oracles)
// from the Trace it embeds.

// closureTrace runs the closure form of a Trace's model.
type closureTrace struct{ *Trace }

// later schedules fn d after the current time: the closure form of a
// typed event.
func later(g *workload.Gen, d netsim.Time, fn func()) { g.Eng.At(g.Eng.Now()+d, fn) }

// poisson is Gen.Poisson's closure form: each tick a closure that runs
// fn and schedules the next.
func poisson(g *workload.Gen, ratePerSec float64, fn func()) {
	if ratePerSec <= 0 {
		return
	}
	mean := float64(netsim.Second) / ratePerSec
	var tick func()
	tick = func() {
		fn()
		later(g, netsim.Time(g.R.Exp()*mean), tick)
	}
	later(g, netsim.Time(g.R.Exp()*mean), tick)
}

// newClosureTrace is NewTrace with the closure form of the model.
func newClosureTrace(pk *Picker, host topology.HostID, seed uint64, p Params, sink workload.Collector) *Trace {
	t := closureTrace{&Trace{G: workload.NewGen(pk.Topo, host, seed, sink), P: p, pk: pk, hotMul: 1}}
	switch pk.Topo.HostRole(host) {
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
		panic(fmt.Sprintf("services: no model for role %v", pk.Topo.HostRole(host)))
	}
	return t.Trace
}

// finish closes c if the pooling ablation made it ephemeral.
func (t closureTrace) finish(c *workload.Conn, after netsim.Time) {
	if t.P.DisableConnectionPooling {
		later(t.G, after, c.Close)
	}
}

// rpcOut issues one outbound request/response exchange to peer.
func (t closureTrace) rpcOut(peer topology.HostID, port uint16, req, resp dist.Dist) {
	c := t.conn(peer, port, false)
	c.SendMsg(int(req.Sample(t.G.R)))
	rtt := t.G.RTT(peer)
	svc := netsim.Time(50*netsim.Microsecond) + netsim.Time(t.G.R.Exp()*float64(100*netsim.Microsecond))
	later(t.G, rtt+svc, func() {
		c.RecvMsg(int(resp.Sample(t.G.R)))
	})
	t.finish(c, rtt+svc+netsim.Millisecond)
}

// rpcIn serves one inbound request/response exchange from peer.
func (t closureTrace) rpcIn(peer topology.HostID, port uint16, req, resp dist.Dist) {
	c := t.conn(peer, port, true)
	c.RecvMsg(int(req.Sample(t.G.R)))
	svc := netsim.Time(40*netsim.Microsecond) + netsim.Time(t.G.R.Exp()*float64(80*netsim.Microsecond))
	later(t.G, svc, func() {
		c.SendMsg(int(resp.Sample(t.G.R)))
	})
	t.finish(c, svc+netsim.Millisecond)
}

// ephemeralRPC opens a short-lived connection to peer, exchanges one
// request/response, and closes — the non-pooled long tail visible in the
// SYN interarrival distribution (Fig. 14).
func (t closureTrace) ephemeralRPC(peer topology.HostID, port uint16, req, resp dist.Dist) {
	c := t.G.NewConn(peer, port, true)
	rtt := t.G.RTT(peer)
	later(t.G, rtt, func() {
		c.SendMsg(int(req.Sample(t.G.R)))
		later(t.G, rtt, func() {
			c.RecvMsg(int(resp.Sample(t.G.R)))
			later(t.G, netsim.Time(t.G.R.Exp()*float64(5*netsim.Millisecond)), c.Close)
		})
	})
}

// poolMember runs one pooled connection's life: periodic heartbeats until
// its exponential lifetime expires, then a FIN.
func (t closureTrace) poolMember(c *workload.Conn, lifetimeSec float64) {
	g := t.G
	deadline := g.Eng.Now() + netsim.Time(lifetimeSec*float64(netsim.Second))
	var beat func()
	beat = func() {
		if g.Eng.Now() >= deadline {
			c.Close()
			return
		}
		c.SendMsg(heartbeatMsgBytes)
		later(g, g.RTT(c.Peer), func() { c.RecvMsg(heartbeatMsgBytes) })
		later(g, netsim.Time(g.R.Exp()*heartbeatGapMean*float64(netsim.Second)), beat)
	}
	later(g, netsim.Time(g.R.Exp()*heartbeatGapMean*float64(netsim.Second)), beat)
}

// churnRPC models connection-pool churn: with probability pStay the new
// connection joins the pool (heartbeats until its lifetime ends);
// otherwise it behaves like ephemeralRPC.
func (t closureTrace) churnRPC(peer topology.HostID, port uint16, req, resp dist.Dist, pStay float64) {
	if !t.G.R.Bool(pStay) {
		t.ephemeralRPC(peer, port, req, resp)
		return
	}
	c := t.G.NewConn(peer, port, true)
	rtt := t.G.RTT(peer)
	later(t.G, rtt, func() {
		c.SendMsg(int(req.Sample(t.G.R)))
		later(t.G, rtt, func() { c.RecvMsg(int(resp.Sample(t.G.R))) })
	})
	t.poolMember(c, t.G.R.Exp()*poolLifetimeMean)
}

// prePool creates the steady-state standing pool a capture would find
// already open: ratePerSec×pStay×poolLifetime members, pre-established
// (no SYN), each with a residual exponential lifetime. This is what puts
// "100s to 1000s of concurrent connections" (§6.4) on Web and cache
// hosts and the large at-capture-start mass in Fig. 7.
func (t closureTrace) prePool(pickPeer func() topology.HostID, port uint16, ratePerSec, pStay float64) {
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

func (t closureTrace) installWeb() {
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
	pickCache := func() topology.HostID {
		set := caches
		if p.PartitionUsers && g.R.Float64() < 0.9 {
			set = shard
		}
		return set.At(g.R.Intn(set.Len()))
	}

	// One user request: SLB in → cache/MF fan-out → reply toward the edge.
	userRequest := func() {
		slb := t.pk.ClusterPeer(g.R, self, topology.RoleSLB)
		slbConn := t.conn(slb, PortWeb, true)
		slbConn.RecvMsg(int(slbRequestBytes.Sample(g.R)))

		reads := poissonCount(g, p.WebCacheReadsPerReq)
		for i := 0; i < reads; i++ {
			d := netsim.Time(g.R.Exp() * float64(2*netsim.Millisecond))
			later(g, d, func() {
				t.rpcOut(pickCache(), PortCache, cacheReadReqBytes, cacheReadRespBytes)
			})
		}
		writes := poissonCount(g, p.WebCacheWritesPerReq)
		for i := 0; i < writes; i++ {
			d := netsim.Time(g.R.Exp() * float64(4*netsim.Millisecond))
			later(g, d, func() {
				t.rpcOut(pickCache(), PortCache, cacheWriteBytes, cacheWriteAckBytes)
			})
		}
		mfOps := poissonCount(g, p.WebMFOpsPerReq)
		for i := 0; i < mfOps; i++ {
			later(g, netsim.Time(g.R.Exp()*float64(2*netsim.Millisecond)), func() {
				t.rpcOut(t.pk.ClusterPeer(g.R, self, topology.RoleMultifeed), PortMF, mfReqBytes, mfRespBytes)
			})
		}
		// Assemble and reply: small control bytes to the SLB, the page
		// itself toward the edge (misc hosts standing in for egress
		// routers; half of egress leaves the datacenter).
		done := netsim.Time(8*netsim.Millisecond) + netsim.Time(g.R.Exp()*float64(8*netsim.Millisecond))
		later(g, done, func() {
			slbConn.SendMsg(int(slbControlBytes.Sample(g.R)))
			t.finish(slbConn, netsim.Millisecond)
			edge := t.pk.DCPeer(g.R, self, topology.RoleMisc)
			if g.R.Bool(0.7) {
				edge = t.pk.RemotePeer(g.R, self, topology.RoleMisc)
			}
			c := t.conn(edge, PortEgress, false)
			c.SendMsg(int(egressReplyBytes.Sample(g.R)))
			t.finish(c, netsim.Millisecond)
		})
	}
	poisson(g, p.WebUserReqPerSec, userRequest)

	// Service chatter drives the Web SYN arrival rate: a third of new
	// connections join pools and persist.
	t.prePool(func() topology.HostID { return t.pk.MiscPeer(g.R, self) },
		PortMisc, p.WebEphemeralPerSec, 0.35)
	poisson(g, p.WebEphemeralPerSec, func() {
		t.churnRPC(t.pk.MiscPeer(g.R, self), PortMisc, miscReqBytes, miscRespBytes, 0.35)
	})
}

func (t closureTrace) installCacheFollower() {
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
	pickWeb := func() topology.HostID {
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
	var readLoop func()
	readLoop = func() {
		t.rpcIn(pickWeb(), PortCache, cacheReadReqBytes, cacheReadRespBytes)
		mean := float64(netsim.Second) / (p.CacheReadPerSec * t.hotMul)
		later(g, netsim.Time(g.R.Exp()*mean), readLoop)
	}
	later(g, netsim.Time(g.R.Exp()*float64(netsim.Second)/p.CacheReadPerSec), readLoop)

	poisson(g, p.CacheWritePerSec, func() {
		t.rpcIn(pickWeb(), PortCache, cacheWriteBytes, cacheWriteAckBytes)
	})

	// Coherency with leaders: miss fills out-of-cluster (§4.2: leaders
	// engage in intra- and inter-datacenter traffic).
	poisson(g, p.CacheLeaderSyncPerSec, func() {
		leader := t.pk.FleetPeer(g.R, self, topology.RoleCacheLeader, 0.6)
		if g.R.Bool(0.7) {
			t.rpcOut(leader, PortLeader, leaderSyncReqBytes, leaderFillBytes)
		} else {
			// Invalidations arrive from the leader.
			t.rpcIn(leader, PortCache, leaderInvalBytes, cacheWriteAckBytes)
		}
	})

	// Hot objects: a burst of demand on this follower. Mitigation
	// (web-side caching, then replication) clips it within ~200 ms;
	// the ablation lets it run for tens of seconds (§5.2).
	poisson(g, p.HotObjectPerSec, func() {
		if t.hotMul > 1 {
			return // already handling one
		}
		t.hotMul = p.HotObjectMultiplier
		hold := netsim.Time(200 * netsim.Millisecond)
		if p.DisableHotObjectMitigation {
			hold = netsim.Time((10 + g.R.Float64()*30) * float64(netsim.Second))
		}
		later(g, hold, func() { t.hotMul = 1 })
	})

	// Cache connection churn is dominated by pool replenishment: most new
	// connections persist (§5.1: >40% of cache flows outlive the capture).
	t.prePool(func() topology.HostID { return t.pk.MiscPeer(g.R, self) },
		PortMisc, p.CacheEphemeralPerSec, 0.7)
	poisson(g, p.CacheEphemeralPerSec, func() {
		t.churnRPC(t.pk.MiscPeer(g.R, self), PortMisc, miscReqBytes, miscRespBytes, 0.7)
	})
}

func (t closureTrace) installCacheLeader() {
	g, p := t.G, t.P
	self := g.Host

	// Fills and invalidations toward followers in Frontend clusters
	// everywhere: ~60% same datacenter, the rest across the backbone.
	poisson(g, p.LeaderFillPerSec, func() {
		f := t.pk.FleetPeer(g.R, self, topology.RoleCacheFollower, 0.6)
		if g.R.Bool(0.6) {
			c := t.conn(f, PortCache, false)
			c.SendMsg(int(leaderFillBytes.Sample(g.R)))
			t.finish(c, netsim.Millisecond)
		} else {
			c := t.conn(f, PortCache, false)
			c.SendMsg(int(leaderInvalBytes.Sample(g.R)))
			t.finish(c, netsim.Millisecond)
		}
	})

	// Misses arriving from followers; answered with fills.
	poisson(g, p.LeaderMissInPerSec, func() {
		f := t.pk.FleetPeer(g.R, self, topology.RoleCacheFollower, 0.6)
		t.rpcIn(f, PortLeader, leaderSyncReqBytes, leaderFillBytes)
	})

	// Database reads and writes behind the misses.
	poisson(g, p.LeaderDBOpsPerSec, func() {
		db := t.pk.FleetPeer(g.R, self, topology.RoleDB, 0.5)
		t.rpcOut(db, PortDB, dbQueryBytes, dbResultBytes)
	})

	// Pushes to Multifeed aggregators.
	poisson(g, p.LeaderMFPerSec, func() {
		mf := t.pk.DCPeer(g.R, self, topology.RoleMultifeed)
		c := t.conn(mf, PortMF, false)
		c.SendMsg(int(leaderFillBytes.Sample(g.R)))
		t.finish(c, netsim.Millisecond)
	})

	// Intra-cluster coordination with sibling leaders.
	poisson(g, p.LeaderPeerSyncPerSec, func() {
		peer := t.pk.ClusterPeer(g.R, self, topology.RoleCacheLeader)
		t.rpcOut(peer, PortLeader, leaderPeerBytes, leaderPeerBytes)
	})

	t.prePool(func() topology.HostID { return t.pk.MiscPeer(g.R, self) },
		PortMisc, p.LeaderEphemeralPerSec, 0.65)
	poisson(g, p.LeaderEphemeralPerSec, func() {
		t.churnRPC(t.pk.MiscPeer(g.R, self), PortMisc, miscReqBytes, miscRespBytes, 0.65)
	})
}

// installHadoop models a Hadoop node's distinct job phases (§4.2): quiet
// computation periods with only control traffic, and busy shuffle/output
// periods of many short-but-occasionally-huge transfers, mostly rack- and
// cluster-local. Every transfer is a fresh connection (no pooling in the
// data plane), producing the short flows of Fig. 6c/7c and the bimodal
// ACK/MTU packet sizes of Fig. 12.
func (t closureTrace) installHadoop() {
	g, p := t.G, t.P
	self := g.Host
	busy := false

	// Phase alternation with log-normal-ish durations (exponential keeps
	// the tail simple; observed variability comes from job mix anyway).
	var enterBusy, enterQuiet func()
	enterBusy = func() {
		busy = true
		later(g, netsim.Time(g.R.Exp()*p.HadoopBusyMeanSec*float64(netsim.Second)), enterQuiet)
	}
	enterQuiet = func() {
		busy = false
		later(g, netsim.Time(g.R.Exp()*p.HadoopQuietMeanSec*float64(netsim.Second)), enterBusy)
	}
	// Start mid-phase, busy with the same duty-cycle probability the
	// steady state would give.
	duty := p.HadoopBusyMeanSec / (p.HadoopBusyMeanSec + p.HadoopQuietMeanSec)
	if g.R.Bool(duty) {
		enterBusy()
	} else {
		enterQuiet()
	}

	// Data transfers during busy phases.
	poisson(g, p.HadoopBusyFlowPerSec, func() {
		if !busy {
			return
		}
		peer := t.pk.HadoopPeer(g.R, self, p.HadoopRackLocalFrac)
		t.hadoopTransfer(peer, int(hadoopFlowBytes.Sample(g.R)), g.R.Bool(0.5))
	})

	// Control/heartbeat traffic runs in every phase.
	poisson(g, p.HadoopQuietFlowPerSec, func() {
		peer := t.pk.HadoopPeer(g.R, self, 0.2)
		t.hadoopTransfer(peer, int(hadoopControlBytes.Sample(g.R)), g.R.Bool(0.5))
	})
}

// hadoopTransfer moves size bytes over a fresh connection in chunked
// application writes with pauses between chunks, then closes. Outbound
// and inbound transfers are both synthesized so the mirror sees both
// shuffle directions.
func (t closureTrace) hadoopTransfer(peer topology.HostID, size int, outbound bool) {
	g, p := t.G, t.P
	chunk := p.HadoopChunkBytes
	if chunk <= 0 {
		chunk = 64 << 10
	}
	gapMean := p.HadoopChunkGapMs * float64(netsim.Millisecond)

	var c *workload.Conn
	if outbound {
		c = t.G.NewConn(peer, PortHadoop, true)
	} else {
		c = t.G.NewInboundConn(peer, PortHadoopIn, true)
	}
	remaining := size
	var step func()
	step = func() {
		n := remaining
		if n > chunk {
			n = chunk
		}
		if outbound {
			c.SendMsg(n)
		} else {
			c.RecvMsg(n)
		}
		remaining -= n
		if remaining > 0 {
			later(g, netsim.Time(g.R.Exp()*gapMean), step)
			return
		}
		later(g, netsim.Time(g.R.Exp()*float64(2*netsim.Millisecond)), c.Close)
	}
	// Data begins one RTT after the handshake.
	later(g, t.G.RTT(peer), step)
}

// installMultifeed serves aggregation requests from the cluster's Web
// tier and receives pushes from cache leaders (news-feed assembly, §3.1).
func (t closureTrace) installMultifeed() {
	g, p := t.G, t.P
	self := g.Host
	poisson(g, p.MFReqPerSec, func() {
		web := t.pk.ClusterPeer(g.R, self, topology.RoleWeb)
		t.rpcIn(web, PortMF, mfReqBytes, mfRespBytes)
	})
	poisson(g, p.LeaderMFPerSec, func() {
		leader := t.pk.FleetPeer(g.R, self, topology.RoleCacheLeader, 0.7)
		c := t.conn(leader, PortMF, true)
		c.RecvMsg(int(leaderFillBytes.Sample(g.R)))
		t.finish(c, netsim.Millisecond)
	})
	poisson(g, p.MiscFlowPerSec/4, func() {
		t.ephemeralRPC(t.pk.MiscPeer(g.R, self), PortMisc, miscReqBytes, miscRespBytes)
	})
}

// installSLB forwards user requests to the cluster's Web servers and
// exchanges health/control traffic; page payloads return to users
// directly, so the SLB's own byte volume is modest (Table 2's small SLB
// share).
func (t closureTrace) installSLB() {
	g, p := t.G, t.P
	self := g.Host
	poisson(g, p.SLBReqPerSec, func() {
		web := t.pk.ClusterPeer(g.R, self, topology.RoleWeb)
		t.rpcOut(web, PortWeb, slbRequestBytes, slbControlBytes)
	})
	// Ingress from the edge (misc hosts stand in for routers).
	poisson(g, p.SLBReqPerSec/2, func() {
		edge := t.pk.FleetPeer(g.R, self, topology.RoleMisc, 0.5)
		c := t.conn(edge, PortSLB, true)
		c.RecvMsg(int(slbRequestBytes.Sample(g.R)))
		t.finish(c, netsim.Millisecond)
	})
}

// installDB serves queries from cache leaders and replicates writes to
// sibling databases in the same cluster, the same datacenter, and across
// the backbone in roughly equal parts (the most uniform locality row of
// Table 3).
func (t closureTrace) installDB() {
	g, p := t.G, t.P
	self := g.Host
	poisson(g, p.DBQueryPerSec, func() {
		leader := t.pk.FleetPeer(g.R, self, topology.RoleCacheLeader, 0.5)
		t.rpcIn(leader, PortDB, dbQueryBytes, dbResultBytes)
	})
	poisson(g, p.DBReplPerSec, func() {
		var peer topology.HostID
		switch g.R.Intn(3) {
		case 0:
			peer = t.pk.ClusterPeer(g.R, self, topology.RoleDB)
		case 1:
			peer = t.pk.DCPeer(g.R, self, topology.RoleDB)
		default:
			peer = t.pk.RemotePeer(g.R, self, topology.RoleDB)
		}
		c := t.conn(peer, PortDB, false)
		c.SendMsg(int(dbReplBytes.Sample(g.R)))
		t.finish(c, netsim.Millisecond)
	})
}

// installMisc models the long tail of supporting services: RPC chatter
// with the Service-cluster locality mix.
func (t closureTrace) installMisc() {
	g, p := t.G, t.P
	self := g.Host
	poisson(g, p.MiscFlowPerSec, func() {
		peer := t.pk.MiscPeer(g.R, self)
		if g.R.Bool(0.5) {
			t.rpcOut(peer, PortMisc, miscReqBytes, miscRespBytes)
		} else {
			t.rpcIn(peer, PortMisc, miscReqBytes, miscRespBytes)
		}
	})
}

// TestTraceMatchesClosureSchedule generates every role's trace for seeds
// 1, 7 and 42 with the typed model and with its closure form, and
// requires identical streams, header by header, from generators that end
// in the same state: the same random draws, in the same order. A second
// arm turns on every ablation that changes what the model schedules
// (ephemeral connections closed after each RPC or one-way message,
// unmitigated hot objects,
// affinity routing, partitioned users), and a third shortens Hadoop
// phases and makes hot objects frequent, so that phase changes and hot
// holds happen inside the trace. The typed side reuses one Trace, Reset
// for each host and seed.
func TestTraceMatchesClosureSchedule(t *testing.T) {
	topo, pk := testTopo(t)
	ablated := DefaultParams()
	ablated.DisableConnectionPooling = true
	ablated.DisableHotObjectMitigation = true
	ablated.DisableLoadBalancing = true
	ablated.PartitionUsers = true
	dense := DefaultParams() // Hadoop phases and hot objects come and go within a trace
	dense.HadoopBusyMeanSec, dense.HadoopQuietMeanSec = 0.2, 0.3
	dense.HotObjectPerSec = 20
	roles := []topology.Role{
		topology.RoleWeb, topology.RoleCacheFollower, topology.RoleCacheLeader, topology.RoleHadoop,
		topology.RoleMultifeed, topology.RoleSLB, topology.RoleDB, topology.RoleMisc,
	}
	const dur = 2 * netsim.Second
	for _, arm := range []struct {
		name  string
		p     Params
		seeds []uint64
	}{
		{"default", DefaultParams(), []uint64{1, 7, 42}},
		{"ablated", ablated, []uint64{1}},
		{"dense", dense, []uint64{1, 7}},
	} {
		var typed *Trace
		for _, role := range roles {
			host := firstOfRole(t, topo, role)
			for _, seed := range arm.seeds {
				want, got := &trace{}, &trace{}
				ref := newClosureTrace(pk, host, seed, arm.p, want)
				ref.Run(dur)
				if typed == nil {
					typed = NewTrace(pk, host, seed, arm.p, got)
				} else {
					typed.Reset(host, seed, got)
				}
				typed.Run(dur)
				name := fmt.Sprintf("%s %v seed %d", arm.name, role, seed)
				if len(want.hdrs) == 0 {
					t.Fatalf("%s: no packets", name)
				}
				if len(got.hdrs) != len(want.hdrs) {
					t.Fatalf("%s: %d packets, want %d", name, len(got.hdrs), len(want.hdrs))
				}
				for i := range want.hdrs {
					if got.hdrs[i] != want.hdrs[i] {
						t.Fatalf("%s: packet %d: %+v, want %+v", name, i, got.hdrs[i], want.hdrs[i])
					}
				}
				if *typed.G.R != *ref.G.R || typed.G.Eng.Now() != ref.G.Eng.Now() {
					t.Fatalf("%s: generators end in different states", name)
				}
			}
		}
	}
}
