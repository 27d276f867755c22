package services

import (
	"fmt"

	"fbdcnet/internal/dist"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/topology"
)

// loopRow is one Poisson loop of a role's model: rate times a second,
// tick runs op toward a peer drawn from dst (see Trace.pick), on port,
// with requests of req bytes and responses of resp. A row with a share
// runs its op on that share of its ticks and the next row's op on the
// others, toward the same peer; a row with no rate is a step that only
// another row runs.
type loopRow struct {
	rate  float64
	op    loopOp
	dst   []dstTerm
	port  uint16
	req   dist.Dist
	resp  reply
	share float64
}

// loopOp is what a loop row does.
type loopOp uint8

const (
	opCall         loopOp = iota // an outbound RPC (rpcOut)
	opServe                      // an inbound RPC (rpcIn)
	opPush                       // one message to the peer on a pooled connection
	opPull                       // one message from the peer on a pooled connection
	opReplicate                  // opPush to a peer of a dst term chosen uniformly
	opEphemeral                  // a short-lived RPC to PortMisc, then a close
	opPool                       // a new pooled connection to PortMisc; install makes its standing pool
	opTransfer                   // a Hadoop transfer of req bytes, either direction
	opBusyTransfer               // opTransfer, in a busy phase only
	opHotObject                  // an object on a cache follower goes hot
	opUserRequest                // a Web user request and its fan-out
)

// webRead is the first of the Web table's three fan-out step rows.
const webRead = 1

// loopTable returns the Poisson loops of role's model in install order,
// which fixes the order of their rng draws.
func loopTable(p Params, role topology.Role) []loopRow {
	switch role {
	case topology.RoleWeb: // §3.2, Fig. 2: stateless request fan-out
		return append([]loopRow{
			{rate: p.WebUserReqPerSec, op: opUserRequest, dst: to(scopeCluster, topology.RoleSLB), port: PortWeb, req: slbRequestBytes},
			{op: opCall, port: PortCache, req: cacheReadReqBytes, resp: replyCacheRead},                               // webRead: a cache read
			{op: opCall, port: PortCache, req: cacheWriteBytes, resp: replyCacheWriteAck},                             // a cache write
			{op: opCall, dst: to(scopeCluster, topology.RoleMultifeed), port: PortMF, req: mfReqBytes, resp: replyMF}, // a Multifeed op
		}, churn(p.WebEphemeralPerSec, 0.35)...) // a third of new connections join pools
	case topology.RoleCacheFollower: // read-mostly responses to the cluster's Web tier
		return append([]loopRow{
			{rate: p.CacheWritePerSec, op: opServe, port: PortCache, req: cacheWriteBytes, resp: replyCacheWriteAck},
			// Coherency with leaders (§4.2): miss fills out-of-cluster, and
			// invalidations arriving from the leader.
			{rate: p.CacheLeaderSyncPerSec, op: opCall, dst: fleetDst(topology.RoleCacheLeader, 0.6), port: PortLeader, req: leaderSyncReqBytes, resp: replyLeaderFill, share: 0.7},
			{op: opServe, port: PortCache, req: leaderInvalBytes, resp: replyCacheWriteAck},
			{rate: p.HotObjectPerSec, op: opHotObject},
		}, churn(p.CacheEphemeralPerSec, 0.7)...) // most persist (§5.1: >40% of cache flows outlive the capture)
	case topology.RoleCacheLeader:
		// The coherency plane of the "single geographically distributed
		// instance" (§4.2): fills (60%) and invalidations to followers in
		// Frontend clusters everywhere, misses answered with fills, the
		// database reads and writes behind them, and pushes to Multifeed.
		follower := fleetDst(topology.RoleCacheFollower, 0.6)
		return append([]loopRow{
			{rate: p.LeaderFillPerSec, op: opPush, dst: follower, port: PortCache, req: leaderFillBytes, share: 0.6},
			{op: opPush, port: PortCache, req: leaderInvalBytes},
			{rate: p.LeaderMissInPerSec, op: opServe, dst: follower, port: PortLeader, req: leaderSyncReqBytes, resp: replyLeaderFill},
			{rate: p.LeaderDBOpsPerSec, op: opCall, dst: fleetDst(topology.RoleDB, 0.5), port: PortDB, req: dbQueryBytes, resp: replyDBResult},
			{rate: p.LeaderMFPerSec, op: opPush, dst: to(scopeDC, topology.RoleMultifeed), port: PortMF, req: leaderFillBytes},
			{rate: p.LeaderPeerSyncPerSec, op: opCall, dst: to(scopeCluster, topology.RoleCacheLeader), port: PortLeader, req: leaderPeerBytes, resp: replyLeaderPeer},
		}, churn(p.LeaderEphemeralPerSec, 0.65)...)
	case topology.RoleHadoop: // data transfers in busy phases, control traffic in every phase
		return []loopRow{
			{rate: p.HadoopBusyFlowPerSec, op: opBusyTransfer, dst: hadoopDst(p.HadoopRackLocalFrac), req: hadoopFlowBytes},
			{rate: p.HadoopQuietFlowPerSec, op: opTransfer, dst: hadoopDst(0.2), req: hadoopControlBytes},
		}

	// The background roles below are not monitored in any of the paper's
	// figures, but they must exist and behave plausibly: they are the far
	// ends of monitored hosts' conversations, the constituents of the
	// Service and DB columns of Table 3, and the request sources of the
	// examples.
	case topology.RoleMultifeed: // news-feed assembly (§3.1)
		return []loopRow{
			{rate: p.MFReqPerSec, op: opServe, dst: to(scopeCluster, topology.RoleWeb), port: PortMF, req: mfReqBytes, resp: replyMF},
			{rate: p.LeaderMFPerSec, op: opPull, dst: fleetDst(topology.RoleCacheLeader, 0.7), port: PortMF, req: leaderFillBytes},
			{rate: p.MiscFlowPerSec / 4, op: opEphemeral, dst: miscDst},
		}
	case topology.RoleSLB:
		// User requests forwarded to the Web tier, and ingress from the
		// edge (misc hosts stand in for routers); pages return to users
		// directly, so the SLB's own byte volume is modest (Table 2).
		return []loopRow{
			{rate: p.SLBReqPerSec, op: opCall, dst: to(scopeCluster, topology.RoleWeb), port: PortWeb, req: slbRequestBytes, resp: replySLBControl},
			{rate: p.SLBReqPerSec / 2, op: opPull, dst: fleetDst(topology.RoleMisc, 0.5), port: PortSLB, req: slbRequestBytes},
		}
	case topology.RoleDB:
		// Queries from cache leaders, and writes replicated to the
		// cluster, the datacenter and across the backbone in equal parts
		// (the most uniform locality row of Table 3).
		return []loopRow{
			{rate: p.DBQueryPerSec, op: opServe, dst: fleetDst(topology.RoleCacheLeader, 0.5), port: PortDB, req: dbQueryBytes, resp: replyDBResult},
			{rate: p.DBReplPerSec, op: opReplicate, dst: []dstTerm{{1. / 3, scopeCluster, topology.RoleDB, 0},
				{1. / 3, scopeDC, topology.RoleDB, 0}, {1. / 3, scopeRemote, topology.RoleDB, 0}}, port: PortDB, req: dbReplBytes},
		}
	case topology.RoleMisc: // the long tail: RPCs either way with the Service-cluster locality mix
		return []loopRow{
			{rate: p.MiscFlowPerSec, op: opCall, dst: miscDst, port: PortMisc, req: miscReqBytes, resp: replyMisc, share: 0.5},
			{op: opServe, port: PortMisc, req: miscReqBytes, resp: replyMisc},
		}
	}
	panic(fmt.Sprintf("services: no model for role %v", role))
}

// churn is connection-pool churn toward long-tail services, at rate new
// connections a second of which share join the pool.
func churn(rate, share float64) []loopRow {
	return []loopRow{{rate: rate, op: opPool, dst: miscDst, share: share}, {op: opEphemeral}}
}

// hadoopDst is a Hadoop node's transfer peer: same rack with probability
// rackFrac, otherwise elsewhere in the cluster. It draws as
// Picker.HadoopPeer does, since rng.Bool(p) is Float64() < p.
func hadoopDst(rackFrac float64) []dstTerm {
	return []dstTerm{{rackFrac, scopeRack, topology.RoleHadoop, 0}, {1 - rackFrac, scopeCluster, topology.RoleHadoop, 0}}
}

// tick runs row i of the role's loop table once.
func (t *Trace) tick(i int32) {
	g, rows := t.G, t.tables[t.role]
	r := &rows[i]
	switch {
	case r.op == opHotObject:
		// A burst of demand on this follower. Mitigation (web-side
		// caching, then replication) clips it within ~200 ms; the
		// ablation lets it run for tens of seconds (§5.2).
		if t.hotMul > 1 {
			return // already handling one
		}
		t.hotMul = t.P.HotObjectMultiplier
		hold := netsim.Time(200 * netsim.Millisecond)
		if t.P.DisableHotObjectMitigation {
			hold = netsim.Time((10 + g.R.Float64()*30) * float64(netsim.Second))
		}
		t.after(hold, kindHotEnd, 0, 0)
		return
	case r.op == opBusyTransfer && !t.busy:
		return
	}
	dst := r.dst
	if r.op == opReplicate {
		j := g.R.Intn(len(dst))
		dst = dst[j : j+1]
	}
	peer := t.pick(dst)
	if r.share > 0 && !g.R.Bool(r.share) {
		r = &rows[i+1]
	}
	switch r.op {
	case opCall:
		t.rpcOut(peer, r.port, r.req, r.resp)
	case opServe:
		t.rpcIn(peer, r.port, r.req, r.resp)
	case opPush, opPull, opReplicate:
		c := t.conn(peer, r.port, r.op == opPull)
		t.oneWay(c, r.op == opPull, int(r.req.Sample(g.R)))
	case opEphemeral, opPool:
		// Pool members idle at heartbeat cadence until their lifetime
		// ends; the rest exchange one request/response and close — the
		// non-pooled long tail of the SYN interarrivals (Fig. 14).
		c := g.NewConn(peer, PortMisc, true)
		rtt := g.RTT(peer)
		if r.op == opEphemeral {
			t.after(rtt, kindEphReq, c.ID(), int64(rtt))
			return
		}
		t.after(rtt, kindChurnReq, c.ID(), int64(rtt))
		t.poolMember(c, g.R.Exp()*poolLifetimeMean)
	case opTransfer, opBusyTransfer:
		t.hadoopTransfer(peer, int(r.req.Sample(g.R)), g.R.Bool(0.5))
	case opUserRequest: // SLB in → cache/MF fan-out → reply toward the edge
		c := t.conn(peer, r.port, true)
		c.RecvMsg(int(r.req.Sample(g.R)))
		delay := [...]netsim.Time{2 * netsim.Millisecond, 4 * netsim.Millisecond, 2 * netsim.Millisecond}
		for j, mean := range [...]float64{t.P.WebCacheReadsPerReq, t.P.WebCacheWritesPerReq, t.P.WebMFOpsPerReq} {
			for n := poissonCount(g, mean); n > 0; n-- {
				t.after(netsim.Time(g.R.Exp()*float64(delay[j])), kindRow, webRead+int32(j), 0)
			}
		}
		// Assemble and reply once the fan-out is back.
		done := netsim.Time(8*netsim.Millisecond) + netsim.Time(g.R.Exp()*float64(8*netsim.Millisecond))
		t.after(done, kindWebDone, c.ID(), 0)
	}
}

// A Hadoop node (§4.2) alternates quiet computation phases with only
// control traffic and busy shuffle/output phases of many
// short-but-occasionally-huge transfers, mostly rack- and
// cluster-local. Every transfer is a fresh connection (no pooling in the
// data plane), producing the short flows of Fig. 6c/7c and the bimodal
// ACK/MTU packet sizes of Fig. 12. Phase lengths are exponential.

// phase enters a busy or quiet phase and schedules the next one.
func (t *Trace) phase(busy bool) {
	t.busy = busy
	mean, next := t.P.HadoopQuietMeanSec, int64(1)
	if busy {
		mean, next = t.P.HadoopBusyMeanSec, 0
	}
	t.after(netsim.Time(t.G.R.Exp()*mean*float64(netsim.Second)), kindPhase, 0, next)
}

// hadoopTransfer moves size bytes over a fresh connection in chunked
// application writes with pauses between chunks, then closes. Outbound
// and inbound transfers are both synthesized so the mirror sees both
// shuffle directions.
func (t *Trace) hadoopTransfer(peer topology.HostID, size int, outbound bool) {
	kind, c := kindChunkIn, int32(0)
	if outbound {
		kind, c = kindChunkOut, t.G.NewConn(peer, PortHadoop, true).ID()
	} else {
		c = t.G.NewInboundConn(peer, PortHadoopIn, true).ID()
	}
	// Data begins one RTT after the handshake.
	t.after(t.G.RTT(peer), kind, c, int64(size))
}

// chunk moves the next application write of the transfer on connection
// ev.A, ev.B bytes left, then schedules the one after it or the close.
func (t *Trace) chunk(ev netsim.Event) {
	g, c := t.G, t.G.Conn(ev.A)
	n := int64(t.P.HadoopChunkBytes)
	if n <= 0 {
		n = 64 << 10
	}
	n = min(n, ev.B)
	if ev.Kind == kindChunkOut {
		c.SendMsg(int(n))
	} else {
		c.RecvMsg(int(n))
	}
	if ev.B -= n; ev.B > 0 {
		gapMean := t.P.HadoopChunkGapMs * float64(netsim.Millisecond)
		g.Eng.AfterEvent(netsim.Time(g.R.Exp()*gapMean), ev)
		return
	}
	c.CloseAfter(netsim.Time(g.R.Exp() * float64(2*netsim.Millisecond)))
}
